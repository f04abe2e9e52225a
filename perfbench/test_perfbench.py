"""Tests of the benchmark's own code: the tracer, the statistics it reports,
its agreement with BENCHMARK.json, and the traced run's honesty on small
workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracing
import workloads
from driftsketch import _kernels, cli, noiselab, sketchlib, store

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = {
    "gate-m2000": dict(m=30, held=12, noisy=4, junk=4, copies=4),
    "baseline-build": dict(n=30),
    "drift-sweep": dict(base=40, period=12, sweep_base=12, sweep_test=10),
}
COUNT_STATS = (".calls", ".rows", ".bytes")


def _traced(tmp_path, name, seed=5):
    wl = workloads.WORKLOADS[name](str(tmp_path / name), seed, **SMALL[name])
    os.makedirs(wl.workdir)
    tally = bench.Tally()
    metrics, _ = bench.traced(wl, tally)
    return wl, tally, metrics


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 20, 50, 0),  # overlaps a: [10, 50] is covered once
        ("c", 90, 120, 0),  # clipped to the parent's end
        ("a.child", 12, 18, 1),
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]
    table = tracing.aggregate(spans + [("a", 200, 210, -1)])
    assert table["a"] == {"calls": 2, "total_ns": 30, "self_ns": 24}
    assert table["root"]["self_ns"] == 50


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert bench.highest_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert bench.percentile(values, 50) == 3.0
    assert bench.percentile(values, 0) == 1.0
    assert bench.percentile(values, 100) == 5.0
    assert bench.percentile(values, 90) == pytest.approx(4.6)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert all(m["unit"] == bench.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (cls.name, cls.why) for cls in workloads.WORKLOADS.values()
    ]


def test_tracer_wraps_every_import_path_and_restores_them():
    originals = (cli.gate_check, noiselab._NOISE_OPS["gaussian"], _kernels.match_counts,
                 sketchlib.SketchLibrary.minima_matrix, noiselab.extract_batch, store.load_image,
                 cli._COMMANDS["gate"])
    with tracing.Tracer().installed():
        wrapped = (cli.gate_check, noiselab._NOISE_OPS["gaussian"], _kernels.match_counts,
                   sketchlib.SketchLibrary.minima_matrix, noiselab.extract_batch, store.load_image,
                   cli._COMMANDS["gate"])
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
        assert sketchlib.gate_check is cli.gate_check is noiselab.gate_check
    assert (cli.gate_check, noiselab._NOISE_OPS["gaussian"], _kernels.match_counts,
            sketchlib.SketchLibrary.minima_matrix, noiselab.extract_batch, store.load_image,
            cli._COMMANDS["gate"]) == originals


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_and_untraced_runs_write_identical_files(tmp_path, name):
    wl, tally, _ = _traced(tmp_path, name)
    assert tally.failed == 0 and tally.attempted > 0
    traced = wl.output_files(os.path.join(wl.workdir, "traced2"))
    for untraced in ("untraced1", "untraced2"):
        for a, b in zip(traced, wl.output_files(os.path.join(wl.workdir, untraced))):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), (a, b)


@pytest.mark.parametrize("name", list(SMALL))
def test_count_metrics_repeat_exactly_for_a_seed(tmp_path, name):
    _, _, first = _traced(tmp_path / "one", name)
    _, _, second = _traced(tmp_path / "two", name)
    counts = [k for k in bench.PER_LAYER if k.endswith(COUNT_STATS) or k.startswith("gate.")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["extract.extract_builtin.calls"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate-m2000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
