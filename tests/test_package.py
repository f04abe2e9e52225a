"""The package namespace: each public name written once, and each module
imported the first time it is used."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import driftsketch
from driftsketch.cli import main
from synthcorpus import corpus

_SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(driftsketch.__path__) if not m.name.startswith("_")
)


class TestPublicNames:
    @pytest.mark.parametrize("name", sorted(driftsketch.__all__))
    def test_name_is_its_defining_modules_object(self, name):
        obj = getattr(driftsketch, name)
        if name == "KERNEL_BACKEND":
            assert obj == "pure"
            return
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("driftsketch.")
        assert getattr(home, name) is obj

    def test_dir_covers_names_and_submodules(self):
        assert _SUBMODULES == ["cli", "core", "extract", "head", "noiselab", "sketchlib",
                               "stats", "store"]
        assert {*driftsketch.__all__, *_SUBMODULES} <= set(dir(driftsketch))

    @pytest.mark.parametrize("name", _SUBMODULES)
    def test_submodule_read_as_an_attribute(self, name):
        assert getattr(driftsketch, name) is sys.modules[f"driftsketch.{name}"]

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from driftsketch import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(driftsketch.__all__)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
            driftsketch.frobnicate  # noqa: B018


def test_sketching_loads_only_what_it_uses():
    """A fresh process that imports the package and makes one signature
    loads neither ``numpy.random`` nor the store, head, noise lab, stats or
    CLI modules; reading a library, gating and encoding the gate's report
    load no head, noise lab, stats or CLI module (see ``startup_guard.py``)."""
    env = dict(os.environ, PYTHONPATH=str(Path(driftsketch.__file__).parents[1]))
    guard = Path(__file__).with_name("startup_guard.py")
    proc = subprocess.run([sys.executable, str(guard)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "loaded none of" in proc.stdout
    assert str(Path(driftsketch.__file__)) in proc.stdout


# run in a fresh interpreter: argv is a command line; prints, last, the exit
# code, whether `import numpy` alone loaded numpy.random, and the modules loaded
_RUN_COMMAND = """
import json, sys
import numpy
preloaded = "numpy.random" in sys.modules
from driftsketch.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, preloaded, sorted(sys.modules)]))
"""


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """A three-image corpus, its embeddings, library and labels, and an ids file."""
    work = tmp_path_factory.mktemp("commands")
    (work / "images").mkdir()
    for i, img in enumerate(corpus(5, 3, "commands")):
        driftsketch.save_image(img, str(work / "images" / f"img{i}.pgm"))
    assert main(["extract", str(work / "images"), "--out", str(work / "base.emb")]) == 0
    assert main(["build-baseline", str(work / "base.emb"), "--out", str(work / "base.dskl")]) == 0
    (work / "labels.txt").write_text("img0.pgm 0\nimg1.pgm 1\nimg2.pgm 0\n")
    (work / "ids.txt").write_text("a\nb\nc\n")
    return work


# command -> (argv under the inputs' directory, the exit codes it may give)
_COMMAND_LINES = {
    "--help": (["--help"], {0}),
    "usage-error": (["gate"], {2}),
    "extract": (["extract", "images", "--out", "out.emb"], {0}),
    "build-baseline": (["build-baseline", "images", "--out", "out.dskl"], {0}),
    "gate": (["gate", "images", "--library", "base.dskl", "--out", "gate.jsonl"], {0, 1}),
    "drift": (["drift", "base.emb", "images", "--out", "drift.jsonl"], {0, 1}),
    "split": (["split", "ids.txt", "--groups", "2", "--out", "plan.json"], {0}),
    "sweep": (["sweep", "images", "images", "--noise", "gaussian", "--levels", "0,0.1",
               "--out", "sweep.jsonl"], {0}),
    "train-head": (["train-head", "base.emb", "--labels", "labels.txt", "--out", "m.json"], {0}),
}
_UNUSED = {
    "sweep": ["driftsketch.head"],
    "train-head": ["driftsketch.noiselab"],
}
_NO_RANDOM = ("extract", "build-baseline", "gate", "drift")


@pytest.mark.parametrize("command", list(_COMMAND_LINES))
def test_a_command_loads_only_the_modules_it_uses(command_inputs, command):
    """Run by `cli.main` in a fresh process, a command that neither sweeps
    nor trains loads neither the noise lab nor the head; sweep loads no head
    and train-head no noise lab. extract, build-baseline, gate and drift load
    no ``numpy.random`` where ``import numpy`` alone does not."""
    argv, codes = _COMMAND_LINES[command]
    env = dict(os.environ, PYTHONPATH=str(Path(driftsketch.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RUN_COMMAND, *argv], cwd=command_inputs,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, preloaded, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code in codes, proc.stderr
    unused = [*_UNUSED.get(command, ["driftsketch.head", "driftsketch.noiselab"])]
    if command in _NO_RANDOM and not preloaded:
        unused.append("numpy.random")
    assert [m for m in unused if m in modules] == []
    assert "driftsketch.cli" in modules
