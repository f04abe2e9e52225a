"""The benchmark's workloads: seeded inputs, per-image requests, CLI calls
and the checks that decide whether the program's outputs are correct.

Each workload drives the program the way its users do: per-image library
calls in a closed loop (one client, the next image only after the previous
verdict), and the CLI subcommands over whole directories. Requests call
layer functions through their module attributes at call time, so a traced
pass sees them.
"""

import json
import os

import numpy as np

import corpus
from driftsketch import PipelineConfig, extract, sketchlib, store


def _name(path):
    return os.path.basename(path)


class Workload:
    """Inputs, one request, the CLI calls of one pass, and their checks."""

    name = ""
    why = ""
    setup_code = ""  # Python run in a fresh process; ends ready for the first input

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.cfg = PipelineConfig()
        self.fingerprint = extract.extract_fingerprint(self.cfg.extract)
        self.items = []

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def _features(self, path):
        return extract.extract_builtin(store.load_image(path), self.cfg.extract, _name(path))

    def prepare(self):
        """Write the inputs and build in-process state; not timed."""
        raise NotImplementedError

    @property
    def images_per_pass(self):
        """Images one pass of the CLI calls processes."""
        raise NotImplementedError

    def request(self, path):
        raise NotImplementedError

    def check_request(self, path, result):
        return True

    def cli_calls(self, out):
        """``[(argv, expected exit code)]`` of one pass writing into ``out``."""
        raise NotImplementedError

    def output_files(self, out):
        raise NotImplementedError

    def check_outputs(self, out, answers):
        """``[(check name, passed)]`` for one pass's outputs and its requests."""
        raise NotImplementedError


_WARM_SALTS = (
    "import driftsketch as ds\n"
    "cfg = ds.PipelineConfig()\n"
    "ds.minhash(ds.tokenize([0.5], cfg.quant), cfg.sketch)\n"
)


class GateWorkload(Workload):
    name = "gate-m2000"
    why = (
        "real-time gate of shuffled queries against an m=2000 library; "
        "every query compares all m rows"
    )

    def __init__(self, workdir, seed, m=2000, held=750, noisy=100, junk=100, copies=50):
        super().__init__(workdir, seed)
        self.m = m
        self.mix = (held, noisy, junk, copies)
        self.library_path = self.path("base.dskl")
        self.query_dir = self.path("queries")
        self.setup_code = (
            "import driftsketch as ds\n"
            f"lib = ds.store.read_library({self.library_path!r})\n"
            "ds.minhash(ds.tokenize([0.5], lib.quant_config), lib.sketch_config)\n"
        )

    def prepare(self):
        base = corpus.gray_dir(self.path("base"), self.seed, self.m)
        self.kinds = corpus.gate_queries(self.query_dir, self.seed, base, *self.mix)
        feats = [self._features(p) for p in base]
        lib = sketchlib.build_library(feats, self.cfg.quant, self.cfg.sketch, self.fingerprint)
        store.write_library(lib, self.library_path)
        self.library = store.read_library(self.library_path)
        self.items = [os.path.join(self.query_dir, n) for n in sorted(self.kinds)]

    def request(self, path):
        return sketchlib.gate_check(
            self.library, self._features(path), self.cfg.gate, self.fingerprint
        )

    def check_request(self, path, result):
        kind = self.kinds[_name(path)]
        if kind == "held":
            return not result.anomalous
        if kind == "junk":
            return result.anomalous
        if kind == "copy":
            return result.score == 1.0
        return True

    @property
    def images_per_pass(self):
        return len(self.kinds)

    def cli_calls(self, out):
        (report,) = self.output_files(out)
        return [(["gate", self.query_dir, "--library", self.library_path, "--out", report], 1)]

    def output_files(self, out):
        return [os.path.join(out, "verdicts.jsonl")]

    def check_outputs(self, out, answers):
        (report,) = self.output_files(out)
        with open(report, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        verdicts = {r["source_id"]: (r["score"], r["verdict"]) for r in rows if "source_id" in r}
        library_calls = {_name(p): (r.score, r.verdict) for p, r in answers.items()}
        return [
            ("gate report kind", rows[0].get("kind") == "gate_report"),
            ("gate report covers every query", sorted(verdicts) == sorted(self.kinds)),
            ("library and CLI gates agree", verdicts == library_calls),
        ]


class BuildWorkload(Workload):
    name = "baseline-build"
    why = (
        "extract and build-baseline over n=2000 images: "
        "writes embeddings and a library, no gating"
    )
    setup_code = _WARM_SALTS

    def __init__(self, workdir, seed, n=2000):
        super().__init__(workdir, seed)
        self.n = n
        self.image_dir = self.path("images")

    def prepare(self):
        self.items = corpus.gray_dir(self.image_dir, self.seed, self.n)

    def request(self, path):
        tokens = sketchlib.tokenize(self._features(path), self.cfg.quant)
        return sketchlib.minhash(tokens, self.cfg.sketch)

    @property
    def images_per_pass(self):
        return self.n

    def cli_calls(self, out):
        emb, lib = self.output_files(out)
        return [
            (["extract", self.image_dir, "--out", emb], 0),
            (["build-baseline", emb, "--out", lib], 0),
        ]

    def output_files(self, out):
        return [os.path.join(out, "base.emb"), os.path.join(out, "base.dskl")]

    def check_outputs(self, out, answers):
        emb, lib_path = self.output_files(out)
        names = [_name(p) for p in self.items]
        lib = store.read_library(lib_path)
        feats = extract.load_embeddings(emb)
        lib_ids = [sid for sid, _ in lib.entries]
        sample = np.random.default_rng([self.seed, 99]).choice(
            len(feats), size=min(256, len(feats)), replace=False
        )
        resketched = all(
            np.array_equal(
                sketchlib.minhash(
                    sketchlib.tokenize(feats[i], lib.quant_config), lib.sketch_config
                ).minima,
                lib.entries[i][1].minima,
            )
            for i in sample
        )
        extracted = all(
            np.array_equal(v.values, self._features(p).values) for v, p in zip(feats, self.items)
        )
        by_id = dict(lib.entries)
        requests = all(
            np.array_equal(sig.minima, by_id[_name(p)].minima) for p, sig in answers.items()
        )
        return [
            ("library has n entries in input order", lib_ids == names),
            ("embeddings in input order", [v.source_id for v in feats] == names),
            ("library signatures re-sketch from embeddings", resketched),
            ("embeddings equal in-process extraction bit for bit", extracted),
            ("per-image sketches equal library signatures", requests),
        ]


class DriftWorkload(Workload):
    name = "drift-sweep"
    why = (
        "drift over 6 brightness-shifted RGB periods and a 5-level noise sweep: "
        "PPM, 3-channel extract, stats, noiselab"
    )
    setup_code = _WARM_SALTS
    shifts = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)
    noise = "gaussian"
    levels = (0.0, 0.05, 0.1, 0.2, 0.4)

    def __init__(self, workdir, seed, base=500, period=100, sweep_base=200, sweep_test=100):
        super().__init__(workdir, seed)
        self.sizes = (base, period, sweep_base, sweep_test)
        self.baseline = self.path("base.emb")
        self.periods = [self.path(f"p{k}") for k in range(len(self.shifts))]

    def prepare(self):
        base, period, sweep_base, sweep_test = self.sizes
        paths = corpus.scene_dir(self.path("base"), self.seed, base, label=0)
        feats = [self._features(p) for p in paths]
        store.write_embeddings(feats, self.baseline)
        self.library = sketchlib.build_library(feats, self.cfg.quant, self.cfg.sketch)
        self.items = []
        for k, (directory, shift) in enumerate(zip(self.periods, self.shifts)):
            self.items += corpus.scene_dir(directory, self.seed, period, label=1 + k, shift=shift)
        corpus.scene_dir(self.path("sweep-base"), self.seed, sweep_base, label=10)
        corpus.scene_dir(self.path("sweep-test"), self.seed, sweep_test, label=11)

    def request(self, path):
        return sketchlib.gate_check(
            self.library, self._features(path), self.cfg.gate, self.fingerprint
        )

    def check_request(self, path, result):
        # unshifted frames of the baseline scene must pass the gate
        return os.path.dirname(path) != self.periods[0] or not result.anomalous

    @property
    def images_per_pass(self):
        _, period, _, sweep_test = self.sizes
        return period * len(self.shifts) + sweep_test * len(self.levels)

    def cli_calls(self, out):
        drift, sweep = self.output_files(out)
        levels = ",".join(str(x) for x in self.levels)
        return [
            (["drift", self.baseline, *self.periods, "--out", drift], 1),
            (
                ["sweep", self.path("sweep-base"), self.path("sweep-test"), "--noise", self.noise,
                 "--levels", levels, "--out", sweep],
                0,
            ),
        ]

    def output_files(self, out):
        return [os.path.join(out, "drift.jsonl"), os.path.join(out, "sweep.jsonl")]

    def check_outputs(self, out, answers):
        drift_path, sweep_path = self.output_files(out)
        drift, _ = store.read_drift_report(drift_path)
        sweep, _ = store.read_sensitivity_report(sweep_path)
        rows = drift.periods
        ks = [p.ks_d for p in rows]
        ids = [p.period_id for p in rows]
        return [
            ("drift periods in order", ids == [_name(p) for p in self.periods]),
            ("unshifted period not flagged", not rows[0].drift_flag and not rows[0].gate_flag_count),
            ("shifted periods flagged", all(p.drift_flag for p in rows[1:])),
            ("KS D does not decrease with the shift", all(b >= a for a, b in zip(ks, ks[1:]))),
            ("sweep levels as requested", tuple(r.level for r in sweep.rows) == self.levels),
            ("no anomalies at noise level 0", sweep.rows[0].anomaly_rate == 0.0),
        ]


WORKLOADS = {cls.name: cls for cls in (GateWorkload, BuildWorkload, DriftWorkload)}
