"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import driftsketch as ds
from driftsketch.cli import main as cli_main
from driftsketch.core import derive_seed, seeded_rng
from driftsketch.head import AdamState, HeadModel, TrainConfig, adam_step
from driftsketch.noiselab import poisson_noise, salt_pepper, speckle
from driftsketch.sketchlib import SketchConfig, TokenSet
from driftsketch.store import load_model, save_model, write_library, read_library
from synthcorpus import constant_images, corpus, spearman, uniform_noise_images


def acceptance(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} FAIL  {description}")
                raise
            print(f"\nACCEPTANCE {number:02d} PASS  {description}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline():
    return ds.PipelineConfig()


@pytest.fixture(scope="module")
def baseline_features(pipeline):
    images = corpus(1234, 50, "acc-base")
    return ds.extract_batch(images, pipeline.extract, [f"b{i}" for i in range(50)])


def period_features(pipeline, seed, label, n=50):
    return ds.extract_batch(
        corpus(seed, n, label), pipeline.extract, [f"{label}/{i}" for i in range(n)]
    )


def corrupted_period_features(pipeline, noise_fn, level, corrupt_from=4, n_periods=7):
    out = []
    for k in range(1, n_periods + 1):
        images = corpus(9000 + k, 50, f"acc-p{k}")
        if k >= corrupt_from:
            images = [
                noise_fn(img, level, derive_seed(42, f"acc.{k}.{i}"))
                for i, img in enumerate(images)
            ]
        feats = ds.extract_batch(
            images, pipeline.extract, [f"p{k}/{i}" for i in range(len(images))]
        )
        out.append((f"p{k}", feats))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@acceptance(1, "MinHash estimator fidelity (k=128, 200 pairs, <10 s)")
def test_criterion_01_minhash_fidelity():
    start = time.time()
    k = 128
    errors = []
    for t in range(200):
        target = 0.05 + 0.9 * t / 199
        union = 200
        n_common = round(target * union)
        n_a = (union - n_common) // 2
        n_b = union - n_common - n_a
        base = t * 10**7
        common = np.arange(base, base + n_common, dtype=np.uint64)
        a = TokenSet(tokens=np.concatenate([common, np.arange(base + 10**6, base + 10**6 + n_a, dtype=np.uint64)]))
        b = TokenSet(tokens=np.concatenate([common, np.arange(base + 2 * 10**6, base + 2 * 10**6 + n_b, dtype=np.uint64)]))
        exact = ds.exact_jaccard(a, b)
        assert 0.04 <= exact <= 0.96
        cfg = SketchConfig(k=k, hash_seed=t)
        est = ds.estimate_jaccard(ds.minhash(a, cfg), ds.minhash(b, cfg))
        errors.append(abs(est - exact))
    errors = np.array(errors)
    assert errors.mean() <= 0.05, f"mean error {errors.mean():.4f}"
    assert np.mean(errors <= 0.12) >= 0.95, f"within-0.12 rate {np.mean(errors <= 0.12):.3f}"
    assert time.time() - start < 10.0


def brute_force_ks(a, b):
    best = 0.0
    for x in list(a) + list(b):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


@acceptance(2, "KS statistic equals brute-force oracle on 500 pairs (1e-12)")
def test_criterion_02_ks_oracle_equivalence():
    for t in range(500):
        rng = seeded_rng(t, "acc2")
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 51))
        if t % 5 == 0:  # force ties in 20% of cases
            a = rng.integers(0, 6, n).astype(float)
            b = rng.integers(0, 6, m).astype(float)
        else:
            a = rng.standard_normal(n)
            b = rng.standard_normal(m) + rng.uniform(-0.5, 0.5)
        assert abs(ds.ks_statistic(a, b) - brute_force_ks(a, b)) <= 1e-12


@acceptance(3, "KS p-value calibration: null rejection rate in [0.01, 0.10]")
def test_criterion_03_ks_pvalue_calibration():
    rejections = 0
    for t in range(500):
        rng = seeded_rng(t, "acc3")
        a = rng.standard_normal(100)
        b = rng.standard_normal(100)
        d = ds.ks_statistic(a, b)
        if ds.ks_pvalue(d, 100, 100) < 0.05:
            rejections += 1
    rate = rejections / 500
    assert 0.01 <= rate <= 0.10, f"null rejection rate {rate:.3f}"
    assert ds.ks_pvalue(0.0, 100, 100) == 1.0


@acceptance(4, "analytic BCE gradient matches finite differences (100 cases, 1e-5)")
def test_criterion_04_gradient_check():
    step = 1e-6
    for t in range(100):
        rng = seeded_rng(t, "acc4")
        d = int(rng.integers(1, 8))
        model = HeadModel(w=rng.standard_normal(d), b=float(rng.standard_normal()))
        batch = [
            (ds.FeatureVector(values=rng.standard_normal(d)), int(rng.integers(0, 2)))
            for _ in range(int(rng.integers(1, 10)))
        ]
        analytic = ds.bce_gradient(model, batch)

        def loss_at(w, bias):
            probs = [ds.predict(HeadModel(w=w, b=bias), x) for x, _ in batch]
            return ds.bce_loss(probs, [y for _, y in batch])

        numeric = np.empty(d + 1)
        for i in range(d):
            up = model.w.copy()
            up[i] += step
            dn = model.w.copy()
            dn[i] -= step
            numeric[i] = (loss_at(up, model.b) - loss_at(dn, model.b)) / (2 * step)
        numeric[d] = (loss_at(model.w, model.b + step) - loss_at(model.w, model.b - step)) / (
            2 * step
        )
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        assert rel.max() <= 1e-5, f"case {t}: max rel err {rel.max():.2e}"


@acceptance(5, "Adam single-step oracle, both bias-correction modes (1e-12)")
def test_criterion_05_adam_single_step():
    cfg = TrainConfig()  # lr 5e-5, beta1 0.9, beta2 0.999, eps 1e-8
    state, out = adam_step(AdamState.fresh(1), HeadModel(w=np.empty(0), b=0.0), [1.0], cfg)
    # hand-derived: m=0.1, v=0.001, m_hat=1, v_hat=1, delta=-lr/(1+eps)
    assert abs(state.m[0] - 0.1) <= 1e-12
    assert abs(state.v[0] - 0.001) <= 1e-12
    assert abs(out.b - (-cfg.lr * 1.0 / (1.0 + cfg.epsilon))) <= 1e-12
    assert state.t == 1

    raw_cfg = TrainConfig(bias_correction=False)
    _, out_raw = adam_step(AdamState.fresh(1), HeadModel(w=np.empty(0), b=0.0), [1.0], raw_cfg)
    expected = -raw_cfg.lr * 0.1 / (math.sqrt(0.001) + raw_cfg.epsilon)
    assert abs(out_raw.b - expected) <= 1e-12


def separable_blobs(seed, n=200):
    rng = seeded_rng(seed, "acc-blobs")
    half = n // 2
    xs = np.concatenate([rng.uniform(-3.0, -1.0, half), rng.uniform(1.0, 3.0, n - half)])
    ys = rng.uniform(-1.0, 1.0, n)
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    order = rng.permutation(n)
    return [
        (ds.FeatureVector(values=[xs[i], ys[i]], source_id=str(i)), int(labels[i]))
        for i in order
    ]


@acceptance(6, "head training reaches 99% on separable blobs, deterministically")
def test_criterion_06_head_training():
    data = separable_blobs(77)
    cfg = TrainConfig(lr=0.05, epochs=20, seed=5)
    model, _ = ds.train_head(data, cfg)
    correct = sum((ds.predict(model, x) >= 0.5) == bool(y) for x, y in data)
    assert correct / len(data) >= 0.99, f"accuracy {correct / len(data):.3f}"
    again, _ = ds.train_head(data, cfg)
    np.testing.assert_array_equal(model.w, again.w)
    assert model.b == again.b


@acceptance(7, "clean baseline stability: cosine >= 0.999, D <= 0.05, no flags")
def test_criterion_07_clean_stability(pipeline, baseline_features):
    periods = [
        (f"p{k}", period_features(pipeline, 9000 + k, f"acc-p{k}")) for k in (1, 2, 3)
    ]
    report = ds.drift_report(baseline_features, periods, pipeline.stats)
    for p in report.periods:
        assert p.cosine_score >= 0.999, f"{p.period_id}: cosine {p.cosine_score:.6f}"
        assert p.ks_d <= 0.05, f"{p.period_id}: D {p.ks_d:.4f}"
        assert not p.drift_flag


@acceptance(8, "1% salt-and-pepper and speckle flag periods 4+ with a strict drop")
def test_criterion_08_one_percent_sensitivity(pipeline, baseline_features):
    for noise_fn in (salt_pepper, speckle):
        periods = corrupted_period_features(pipeline, noise_fn, 0.01)
        report = ds.drift_report(baseline_features, periods, pipeline.stats)
        flags = [p.drift_flag for p in report.periods]
        assert flags == [False] * 3 + [True] * 4, f"{noise_fn.__name__}: flags {flags}"
        clean = [p.cosine_score for p in report.periods[:3]]
        corrupted = [p.cosine_score for p in report.periods[3:]]
        assert max(corrupted) < min(clean), (
            f"{noise_fn.__name__}: no strict drop "
            f"({max(corrupted):.6f} vs {min(clean):.6f})"
        )


@acceptance(9, "Poisson lighting noise at the mildest level moves cosine <= 0.02")
def test_criterion_09_lighting_insensitivity(pipeline, baseline_features):
    periods = corrupted_period_features(pipeline, poisson_noise, 0.05)
    report = ds.drift_report(baseline_features, periods, pipeline.stats)
    clean = [p.cosine_score for p in report.periods[:3]]
    noisy = [p.cosine_score for p in report.periods[3:]]
    drop = min(clean) - min(noisy)
    assert drop <= 0.02, f"cosine drop {drop:.5f}"


@acceptance(10, "salt-and-pepper ladder is monotone (Spearman <= -0.9, <60 s, 200 images)")
def test_criterion_10_monotone_sweep(pipeline):
    start = time.time()
    baseline = corpus(31, 200, "acc-sweep-base")
    test = corpus(32, 200, "acc-sweep-test")
    levels = [0.0, 0.05, 0.2, 0.3, 0.5, 0.6, 0.8, 0.9, 1.0]
    report = ds.sensitivity_sweep(baseline, test, "salt_pepper", levels, pipeline, seed=5)
    cosines = [r.cosine_score for r in report.rows]
    rho = spearman(levels, cosines)
    assert rho <= -0.9, f"Spearman {rho:.3f}"
    assert time.time() - start < 60.0


@acceptance(11, "gate accepts >= 95% same-generator items and rejects all junk")
def test_criterion_11_gate_behavior(pipeline, baseline_features):
    library = ds.build_library(baseline_features, pipeline.quant, pipeline.sketch)
    gate = ds.GateConfig(j_alpha=0.5, aggregation="max")

    held_out = ds.extract_batch(
        corpus(777, 100, "acc-held"), pipeline.extract, [f"h{i}" for i in range(100)]
    )
    accepted = sum(not ds.gate_check(library, v, gate).anomalous for v in held_out)
    assert accepted / 100 >= 0.95, f"held-out acceptance {accepted / 100:.2f}"

    junk_images = uniform_noise_images(55, 20) + constant_images(np.linspace(0, 1, 11))
    junk = ds.extract_batch(
        junk_images, pipeline.extract, [f"j{i}" for i in range(len(junk_images))]
    )
    flagged = sum(ds.gate_check(library, v, gate).anomalous for v in junk)
    assert flagged == len(junk), f"only {flagged}/{len(junk)} junk items flagged"

    # confirm one verdict against the exact-Jaccard oracle on raw token sets
    probe_tokens = ds.tokenize(junk[0], pipeline.quant)
    exact_best = max(
        ds.exact_jaccard(probe_tokens, ds.tokenize(v, pipeline.quant))
        for v in baseline_features
    )
    assert exact_best < 0.5


@acceptance(12, "persistence round-trips; every single-bit corruption detected")
def test_criterion_12_persistence(tmp_path, pipeline, baseline_features):
    def all_flips_detected(path, loader, step):
        original = Path(path).read_bytes()
        rng = seeded_rng(7, "acc12-bits")
        for pos in range(0, len(original), step):
            corrupted = bytearray(original)
            corrupted[pos] ^= 1 << int(rng.integers(0, 8))
            with open(path, "wb") as fh:
                fh.write(bytes(corrupted))
            with pytest.raises(ds.StoreError):
                loader(path)
        with open(path, "wb") as fh:
            fh.write(original)

    # sketch library
    library = ds.build_library(
        baseline_features[:10], pipeline.quant, pipeline.sketch, "fp0123456789abcd"
    )
    lib_path = str(tmp_path / "lib.dskl")
    write_library(library, lib_path)
    again = read_library(lib_path)
    assert again.sketch_config == library.sketch_config
    assert again.quant_config == library.quant_config
    assert again.extract_fingerprint == library.extract_fingerprint
    for (sid_a, sig_a), (sid_b, sig_b) in zip(again.entries, library.entries):
        assert sid_a == sid_b
        np.testing.assert_array_equal(sig_a.minima, sig_b.minima)
    all_flips_detected(lib_path, read_library, step=7)

    # head model
    rng = seeded_rng(12, "acc12-model")
    model = HeadModel(w=rng.standard_normal(6), b=0.375)
    model_path = str(tmp_path / "model.json")
    save_model(model, model_path)
    loaded = load_model(model_path)
    np.testing.assert_array_equal(loaded.w, model.w)
    assert loaded.b == model.b
    all_flips_detected(model_path, load_model, step=3)

    # both report types, both formats
    periods = [("p1", baseline_features), ("p2", baseline_features[:20])]
    drift = ds.drift_report(baseline_features, periods, pipeline.stats)
    sens = ds.sensitivity_sweep(
        corpus(61, 6, "acc12-b"), corpus(62, 6, "acc12-t"), "speckle", [0.0, 0.5],
        pipeline, seed=3,
    )
    for fmt in ("jsonl", "csv"):
        drift_path = str(tmp_path / f"drift.{fmt}")
        ds.write_report(drift, fmt, drift_path)
        loaded_report, _ = ds.read_drift_report(drift_path)
        assert loaded_report == drift
        all_flips_detected(drift_path, lambda p: ds.read_drift_report(p), step=11)

        sens_path = str(tmp_path / f"sens.{fmt}")
        ds.write_report(sens, fmt, sens_path)
        loaded_sens, _ = ds.read_sensitivity_report(sens_path)
        assert loaded_sens == sens
        all_flips_detected(sens_path, lambda p: ds.read_sensitivity_report(p), step=11)


@acceptance(13, "repeated CLI drift runs produce byte-identical reports")
def test_criterion_13_cli_determinism(tmp_path):
    def write_dir(name, images):
        directory = str(tmp_path / name)
        os.makedirs(directory)
        for i, img in enumerate(images):
            ds.save_image(img, os.path.join(directory, f"{name}{i:03d}.pgm"))
        return directory

    baseline = write_dir("base", corpus(1234, 20, "acc13-base"))
    p1 = write_dir("p1", corpus(9100, 15, "acc13-p1"))
    p2 = write_dir(
        "p2",
        [
            salt_pepper(img, 0.01, derive_seed(4, f"acc13.{i}"))
            for i, img in enumerate(corpus(9200, 15, "acc13-p2"))
        ],
    )
    for fmt in ("jsonl", "csv"):
        out_a = str(tmp_path / f"a.{fmt}")
        out_b = str(tmp_path / f"b.{fmt}")
        code_a = cli_main(
            ["drift", baseline, p1, p2, "--seed", "9", "--format", fmt, "--out", out_a]
        )
        code_b = cli_main(
            ["drift", baseline, p1, p2, "--seed", "9", "--format", fmt, "--out", out_b]
        )
        assert code_a == code_b == 1  # period 2 is corrupted
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()
