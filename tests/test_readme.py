"""The README's library quickstart runs as written against the package."""

import os
import re
from pathlib import Path

from driftsketch import read_report, save_image
from synthcorpus import corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1]
    match = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL)
    assert match, "no python fence opens the Library quickstart section"
    return match.group(1)


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    for name, seed in (("baseline", 5), ("test", 6)):
        os.mkdir(tmp_path / name)
        for i, img in enumerate(corpus(seed, 4, name)):
            save_image(img, str(tmp_path / name / f"{name}{i}.pgm"))
    monkeypatch.chdir(tmp_path)

    exec(compile(_quickstart(), str(README), "exec"), {"__name__": "quickstart"})

    assert capsys.readouterr().out == "1.0 acceptable\n"
    for path, kind in (
        ("verdicts.jsonl", "gate_report"),
        ("drift.csv", "drift_report"),
        ("sweep.jsonl", "sensitivity_report"),
    ):
        read_report(path, kind)
