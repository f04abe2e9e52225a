"""Pipeline benchmark for driftsketch.

    python3 perfbench/run.py --workload gate-m2000 --seed 1 --seconds 30 --trace 0

Builds seeded inputs for one workload in a scratch directory inside the
checkout, drives the program from one client in a closed loop, checks that
its outputs are correct, and prints as the last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it stamps the run with the machine, the kernel backend and the seed.

``--trace 0`` measures the end-to-end metrics for about ``--seconds``, in
cycles of: one pass of the workload's CLI subcommands as subprocesses
(phase B), fresh-process set-up probes, and per-image library requests
(phase A). ``--trace 1`` makes a fixed pass four times -- traced, untraced,
untraced, traced -- and reports per-layer metrics from the second traced
pass; the CLI runs in-process there through ``driftsketch.cli.main``, the
same code path as the subprocess. Its work does not depend on ``--seconds``,
so its counts repeat exactly for a seed. Workloads, metrics and the layer
each metric should move are described in ``perfbench/README.md``.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
# one BLAS thread, in this process and every program process it starts; set
# before NumPy is first imported
BLAS_PIN = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

PROBES = 6  # fresh-process set-ups timed per run, at least
PROBES_PER_CYCLE = 3
PHASE_A_SHARE = 0.4  # of each cycle; the CLI pass and probes take the rest
WARMUP = 20  # library requests run before timing starts
MIN_PASSES = 2  # CLI passes per run; the second proves byte-identical reruns
TRACE_REQUESTS = 1000  # library requests in each traced-run pass
CLI_TIMEOUT = 120

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "images/s",
    "request_p90_ms": "ms",
    "cli_images_per_s": "images/s",
    "output_mb": "MB",
}

# per-layer metrics: <layer>.<function>.<stat>, counters, and the tracing cost
PER_LAYER = (
    "sketchlib.minima_matrix.calls",
    "sketchlib.minima_matrix.us_per_call",
    "sketchlib.minima_matrix.rows",
    "sketchlib.minima_matrix.bytes",
    "kernels.match_counts.calls",
    "kernels.match_counts.us_per_call",
    "kernels.match_counts.bytes",
    "sketchlib.gate_check.calls",
    "sketchlib.gate_check.us_per_call",
    "sketchlib.gate_check.self_ms",
    "extract.extract_builtin.calls",
    "extract.extract_builtin.us_per_call",
    "sketchlib.tokenize.us_per_call",
    "sketchlib.minhash.calls",
    "sketchlib.minhash.us_per_call",
    "kernels.hash_bins.us_per_call",
    "kernels.minhash_signature.us_per_call",
    "sketchlib.build_library.self_ms",
    "store.write_library.us_per_call",
    "store.read_library.us_per_call",
    "store.library.bytes",
    "store.write_embeddings.self_ms",
    "extract.load_embeddings.self_ms",
    "store.load_image.calls",
    "store.load_image.us_per_call",
    "store.write_report.self_ms",
    "noiselab.gaussian_noise.calls",
    "noiselab.gaussian_noise.us_per_call",
    "noiselab.sensitivity_sweep.self_ms",
    "core.seeded_rng.calls",
    "core.seeded_rng.us_per_call",
    "stats.ks_statistic.self_ms",
    "stats.ks_pvalue.self_ms",
    "stats.batch_cosine.self_ms",
    "stats.drift_report.self_ms",
    "cli.extract.self_ms",
    "cli.build-baseline.self_ms",
    "cli.gate.self_ms",
    "cli.drift.self_ms",
    "cli.sweep.self_ms",
    "gate.queries",
    "gate.anomalous",
    "gate.near_threshold",
    "trace.overhead_ratio",
)
STAT_UNITS = {"calls": "count", "us_per_call": "us", "self_ms": "ms", "rows": "count", "bytes": "B"}


def layer_unit(name):
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.startswith("gate."):
        return "count"
    return STAT_UNITS[name.rsplit(".", 1)[1]]


def highest_percentile(n, candidates=("50", "90", "99", "99.9")):
    """Highest candidate percentile with at least ten of n samples beyond it."""
    fit = [Fraction(p) for p in candidates if n * (100 - Fraction(p)) / 100 >= 10]
    return float(max(fit)) if fit else None


def percentile(sorted_values, pct):
    """Percentile by linear interpolation between the closest ranks."""
    rank = pct / 100 * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (rank - lo) * (sorted_values[hi] - sorted_values[lo])


def per_layer_metrics(table, counters, overhead):
    """Values of every PER_LAYER metric from a traced pass (0 when unused)."""
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = overhead
        elif name in counters:
            value = counters[name]
        else:
            span, stat = name.rsplit(".", 1)
            row = table.get(span, {"calls": 0, "total_ns": 0, "self_ns": 0})
            if stat == "calls":
                value = row["calls"]
            elif stat == "self_ms":
                value = row["self_ns"] / 1e6
            else:
                value = row["total_ns"] / row["calls"] / 1e3 if row["calls"] else 0.0
        out[name] = {"value": value, "unit": layer_unit(name)}
    return out


def machine_stamp(args):
    import driftsketch
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": driftsketch.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_PIN,
    }


class Tally:
    """Attempted and failed operations; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"perfbench: FAILED {what}", file=sys.stderr)


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, env):
    """Run one CLI subcommand as a subprocess; returns (exit code, seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "driftsketch.cli", *argv],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=CLI_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    return proc.returncode, elapsed


def timed_request(wl, path, tally):
    """One library request; returns (result or None, seconds)."""
    start = time.perf_counter()
    try:
        result = wl.request(path)
    except Exception:  # a failed request is counted, and the loop goes on
        elapsed = time.perf_counter() - start
        if tally.failed < 10:
            traceback.print_exc()
        tally.record(False, f"request {path}")
        return None, elapsed
    elapsed = time.perf_counter() - start
    tally.record(wl.check_request(path, result), f"request check {path}")
    return result, elapsed


def same_bytes(paths_a, paths_b):
    """Whether paired files hold the same bytes; a missing file never does."""
    try:
        for a, b in zip(paths_a, paths_b):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    return False
    except FileNotFoundError:
        return False
    return True


def record_checks(wl, out, answers, tally):
    try:
        checks = wl.check_outputs(out, answers)
    except Exception:  # unreadable output is a failed check, not a crash
        traceback.print_exc()
        checks = [("outputs readable", False)]
    for name, ok in checks:
        tally.record(ok, f"check: {name}")


def probe_setup(wl, env, tally):
    """Seconds from a fresh process's start until it is ready for input."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", wl.setup_code], env=env, cwd=ROOT, timeout=CLI_TIMEOUT
    )
    tally.record(proc.returncode == 0, "set-up probe")
    return time.perf_counter() - start


def measure(wl, seconds, tally):
    """End-to-end metrics of one workload; tracing off.

    Cycles until ``seconds`` have passed: one CLI pass (phase B), fresh-process
    set-up probes, then library requests (phase A) for PHASE_A_SHARE of the
    cycle. Every kind of sample is spread over the whole run, so a slow
    spell of the shared host weighs on each figure alike.
    """
    env = program_env()
    wl.prepare()
    probe_setup(wl, env, tally)  # may write bytecode caches; not timed

    answers, latencies, walls, setups = {}, [], [], []
    first_out = None
    i = 0
    start = time.perf_counter()
    end = start + seconds
    while True:
        out = os.path.join(wl.workdir, f"pass{len(walls)}")
        os.makedirs(out)
        wall = 0.0
        for argv, expected in wl.cli_calls(out):
            code, elapsed = run_cli(argv, env)
            wall += elapsed
            tally.record(code == expected, f"{argv[0]} exit {code}, expected {expected}")
        walls.append(wall)
        if first_out is None:
            first_out = out
        else:
            tally.record(
                same_bytes(wl.output_files(first_out), wl.output_files(out)),
                "byte-identical CLI rerun",
            )
            shutil.rmtree(out)

        setups += [probe_setup(wl, env, tally) for _ in range(PROBES_PER_CYCLE)]

        slice_end = time.perf_counter() + wall * PHASE_A_SHARE / (1.0 - PHASE_A_SHARE)
        while time.perf_counter() < slice_end:
            path = wl.items[i % len(wl.items)]
            result, elapsed = timed_request(wl, path, tally)
            if i >= WARMUP:
                latencies.append(elapsed)
            if i < len(wl.items) and result is not None:
                answers[path] = result
            i += 1

        # stop once the minimums are met and another cycle would end past
        # the deadline by more than half a cycle
        now = time.perf_counter()
        cycle, start = now - start, now
        if (
            len(walls) >= MIN_PASSES and len(setups) >= PROBES and i >= len(wl.items)
            and now + cycle / 2 >= end
        ):
            break
    record_checks(wl, first_out, answers, tally)

    pct = highest_percentile(len(latencies))
    if pct is None or pct < 99:
        raise RuntimeError(f"{len(latencies)} requests are too few for a p99")
    ms = sorted(x * 1e3 for x in latencies)
    output = sum(os.path.getsize(p) for p in wl.output_files(first_out) if os.path.exists(p))
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "requests_per_s": len(latencies) / sum(latencies),
        "request_p90_ms": percentile(ms, 90),
        "cli_images_per_s": wl.images_per_pass * len(walls) / sum(walls),
        "output_mb": output / 1e6,
    }
    extra = {
        "request_samples": len(ms),
        "request_p50_ms": percentile(ms, 50),
        "request_highest_percentile": pct,
        "request_tail_ms": {f"p{p:g}": percentile(ms, p) for p in (99, 99.9) if p <= pct},
        "cli_passes": len(walls),
        "cli_images_per_pass": wl.images_per_pass,
        "setup_probes": len(setups),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, extra


def one_pass(wl, out, requests, tracer=None):
    """Fixed work of a traced-run pass: library requests, then the CLI in-process."""
    from driftsketch import cli

    os.makedirs(out)
    scope = tracer.request_scope if tracer else (lambda _: contextlib.nullcontext())
    answers, codes = {}, []
    start = time.perf_counter()
    for i, path in enumerate(requests):
        with scope(i):
            answers[path] = wl.request(path)
    for j, (argv, expected) in enumerate(wl.cli_calls(out)):
        with scope(len(requests) + j):
            codes.append((argv[0], cli.main(argv), expected))
    return time.perf_counter() - start, answers, codes


# traced-run passes in ABBA order, so a warm-up or a drifting machine load
# weighs on the traced and the untraced side alike
PASSES = (("traced1", True), ("untraced1", False), ("untraced2", False), ("traced2", True))


def traced(wl, tally):
    """Per-layer metrics from a traced pass; overhead against untraced passes.

    Layer numbers come from the second traced pass. Every pass must write
    the same bytes and give the same exit codes.
    """
    from tracing import Tracer

    wl.prepare()
    requests = wl.items[:TRACE_REQUESTS]
    walls, results = {}, {}
    for name, on in PASSES:
        out = os.path.join(wl.workdir, name)
        tracer = Tracer() if on else None
        with tracer.installed() if on else contextlib.nullcontext():
            walls[name], answers, codes = one_pass(wl, out, requests, tracer)
        results[name] = (out, answers, codes)

    out, answers, codes = results["traced2"]
    for path, result in answers.items():
        tally.record(wl.check_request(path, result), f"request check {path}")
    for sub, code, expected in codes:
        tally.record(code == expected, f"{sub} exit {code}, expected {expected}")
    record_checks(wl, out, answers, tally)
    for name, (other, _, other_codes) in results.items():
        if name != "traced2":
            tally.record(other_codes == codes, f"exit codes of {name} equal traced2")
            tally.record(
                same_bytes(wl.output_files(other), wl.output_files(out)),
                f"output bytes of {name} equal traced2",
            )

    table = tracer.layer_table()
    overhead = (walls["traced1"] + walls["traced2"]) / (walls["untraced1"] + walls["untraced2"])
    extra = {
        "passes_s": walls,
        "spans": len(tracer.spans),
        "layers": {
            name: {
                "calls": row["calls"],
                "us_per_call": row["total_ns"] / row["calls"] / 1e3,
                "self_ms": row["self_ns"] / 1e6,
            }
            for name, row in sorted(table.items())
        },
    }
    return per_layer_metrics(table, tracer.counters, overhead), extra


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](workdir, args.seed)
        if args.trace:
            metrics, extra = traced(wl, tally)
        else:
            metrics, extra = measure(wl, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = machine_stamp(args)
    stamp.update(extra)
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"attempted {tally.attempted}, failed {tally.failed}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "driftsketch", "__init__.py")):
        print(f"perfbench: no driftsketch source under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, SRC)
    sys.exit(main())
