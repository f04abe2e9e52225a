import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsketch import (
    ConfigError,
    DataError,
    FeatureVector,
    GateConfig,
    MinHashSignature,
    QuantConfig,
    SketchConfig,
    TokenSet,
    build_library,
    estimate_jaccard,
    exact_jaccard,
    gate_check,
    minhash,
    tokenize,
)
from driftsketch import _kernels, sketchlib
from driftsketch.core import seeded_rng
from driftsketch.sketchlib import GateReport, GateResult, SketchLibrary, _minhash_salts

import reference_path


def make_token_set(n_common, n_only_a, n_only_b, base=0):
    """Two sets with exact Jaccard n_common / (n_common + n_only_a + n_only_b)."""
    common = np.arange(base, base + n_common, dtype=np.uint64)
    a_only = np.arange(base + 10**6, base + 10**6 + n_only_a, dtype=np.uint64)
    b_only = np.arange(base + 2 * 10**6, base + 2 * 10**6 + n_only_b, dtype=np.uint64)
    return (
        TokenSet(tokens=np.concatenate([common, a_only])),
        TokenSet(tokens=np.concatenate([common, b_only])),
    )


class TestTokenize:
    def test_equal_vectors_equal_tokens(self):
        q = QuantConfig()
        v = FeatureVector(values=[0.1, 0.2, 0.33])
        a = tokenize(v, q)
        b = tokenize(FeatureVector(values=[0.1, 0.2, 0.33]), q)
        np.testing.assert_array_equal(a.tokens, b.tokens)

    def test_same_bins_same_tokens(self):
        q = QuantConfig(bin_width=0.05)
        a = tokenize(FeatureVector(values=[0.01, 0.06, 0.11]), q)
        b = tokenize(FeatureVector(values=[0.04, 0.09, 0.14]), q)
        np.testing.assert_array_equal(a.tokens, b.tokens)

    def test_partial_overlap_exact_jaccard(self):
        # d=4, two components moved by >= bin_width: 2 shared of 6 distinct
        q = QuantConfig(bin_width=0.05)
        a = tokenize(FeatureVector(values=[0.01, 0.11, 0.21, 0.31]), q)
        b = tokenize(FeatureVector(values=[0.01, 0.11, 0.26, 0.36]), q)
        assert exact_jaccard(a, b) == pytest.approx(2 / 6)

    def test_negative_values_bin_correctly(self):
        q = QuantConfig(bin_width=0.1)
        a = tokenize(FeatureVector(values=[-0.05]), q)  # bin -1
        b = tokenize(FeatureVector(values=[-0.15]), q)  # bin -2
        c = tokenize(FeatureVector(values=[-0.01]), q)  # bin -1
        assert exact_jaccard(a, b) == 0.0
        assert exact_jaccard(a, c) == 1.0

    @pytest.mark.parametrize(
        "values, q",
        [
            pytest.param([1e20, 5.0], QuantConfig(), id="1e+20"),
            pytest.param([-1e20, 5.0], QuantConfig(), id="-1e+20"),
            pytest.param([1e308, 5.0], QuantConfig(), id="1e+308"),  # the division overflows
            # the subtraction overflows
            pytest.param([1e308], QuantConfig(origin=-1e308), id="1e+308-from--1e+308"),
        ],
    )
    def test_bin_outside_int64_rejected(self, values, q):
        # no RuntimeWarning either: the suite turns warnings into errors
        with pytest.raises(DataError, match="value-out-of-range: component 0"):
            tokenize(FeatureVector(values=values), q)

    def test_largest_in_range_bin_accepted(self):
        # 4.6e17 / 0.05 = 9.2e18 < 2**63
        assert len(tokenize(FeatureVector(values=[4.6e17, -4.6e17]), QuantConfig())) == 2

    def test_clamping_merges_tails(self):
        q = QuantConfig(bin_width=0.05, clamp_lo=0.0, clamp_hi=1.0)
        a = tokenize(FeatureVector(values=[5.0, 0.5]), q)
        b = tokenize(FeatureVector(values=[99.0, 0.5]), q)
        assert exact_jaccard(a, b) == 1.0

    @given(
        values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=16),
        shift=st.floats(0, 0.049),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_bin_shift_preserves_tokens(self, values, shift):
        # components aligned at bin centers stay in their bin under small shifts
        q = QuantConfig(bin_width=0.05)
        centered = [np.floor((v - q.origin) / q.bin_width) * q.bin_width + 1e-4 for v in values]
        shifted = [v + min(shift, 0.0498 - 1e-4) for v in centered]
        a = tokenize(FeatureVector(values=centered), q)
        b = tokenize(FeatureVector(values=shifted), q)
        np.testing.assert_array_equal(a.tokens, b.tokens)


class TestTokenSet:
    def test_repeated_tokens_sorted_and_unique(self):
        t = TokenSet(tokens=np.array([9, 3, 2**64 - 1, 3, 0, 9, 9], dtype=np.uint64))
        assert t.tokens.tolist() == [0, 3, 9, 2**64 - 1]
        assert len(t) == 4 and not t.tokens.flags.writeable

    def test_distinct_tokens_sorted(self):
        assert TokenSet(tokens=[5, 1, 4]).tokens.tolist() == [1, 4, 5]


class TestExactJaccard:
    def test_identical_sets(self):
        t = TokenSet(tokens=[1, 2, 3])
        assert exact_jaccard(t, t) == 1.0

    def test_disjoint_sets(self):
        assert exact_jaccard(TokenSet(tokens=[1, 2]), TokenSet(tokens=[3, 4])) == 0.0

    def test_half_overlap(self):
        assert exact_jaccard(TokenSet(tokens=[1, 2, 3]), TokenSet(tokens=[2, 3, 4])) == 0.5

    def test_both_empty_defined_as_one(self):
        assert exact_jaccard(TokenSet(tokens=[]), TokenSet(tokens=[])) == 1.0

    def test_symmetric(self):
        a, b = make_token_set(5, 3, 9)
        assert exact_jaccard(a, b) == exact_jaccard(b, a)


class TestMinHash:
    def test_singleton_minima_are_the_hashes(self):
        from driftsketch._kernels import _mix64

        cfg = SketchConfig(k=16, hash_seed=3)
        single = minhash(TokenSet(tokens=[42]), cfg)
        salts = _minhash_salts(cfg.k, cfg.hash_seed)
        np.testing.assert_array_equal(single.minima, _mix64(np.uint64(42) ^ salts))
        pair = minhash(TokenSet(tokens=[42, 10**9]), cfg)
        assert (pair.minima <= single.minima).all()

    def test_equal_sets_equal_signatures(self):
        cfg = SketchConfig(k=32, hash_seed=1)
        a = minhash(TokenSet(tokens=[5, 6, 7]), cfg)
        b = minhash(TokenSet(tokens=[7, 6, 5]), cfg)
        np.testing.assert_array_equal(a.minima, b.minima)
        assert estimate_jaccard(a, b) == 1.0

    def test_empty_token_set_rejected(self):
        with pytest.raises(DataError, match="empty-token-set"):
            minhash(TokenSet(tokens=[]), SketchConfig())

    def test_salts_are_seed_dependent(self):
        assert (_minhash_salts(8, 1) != _minhash_salts(8, 2)).any()
        np.testing.assert_array_equal(_minhash_salts(8, 1), _minhash_salts(8, 1))

    @pytest.mark.parametrize(
        "hash_seed",
        [0, 1, 2**63, 2**64 - 1,
         int(seeded_rng(11, "salt-oracle").integers(0, 2**64, dtype=np.uint64))],
    )
    def test_salt_j_is_the_first_draw_of_stream_minhash_j(self, hash_seed):
        """The salts are computed without building a generator, and equal the
        first draw of each labeled stream, as every stored signature needs."""
        want = [seeded_rng(hash_seed, f"minhash.{j}").integers(0, 2**64, dtype=np.uint64)
                for j in range(256)]
        salts = _minhash_salts(256, hash_seed)
        assert salts.dtype == np.uint64 and not salts.flags.writeable
        np.testing.assert_array_equal(salts, np.array(want, dtype=np.uint64))

    def test_estimator_concentration(self):
        # |estimate - exact| <= 4/sqrt(k) in >= 95 of 100 seeded trials
        k = 128
        a, b = make_token_set(50, 50, 50)  # exact J = 1/3
        exact = exact_jaccard(a, b)
        bound = 4 / np.sqrt(k)
        hits = 0
        for seed in range(100):
            cfg = SketchConfig(k=k, hash_seed=seed)
            est = estimate_jaccard(minhash(a, cfg), minhash(b, cfg))
            hits += abs(est - exact) <= bound
        assert hits >= 95

    def test_estimator_unbiased(self):
        # mean over 200 seeds within 3*sqrt(J(1-J)/(200k)) + 0.01 of exact J
        k = 128
        a, b = make_token_set(60, 30, 30)  # exact J = 0.5
        exact = exact_jaccard(a, b)
        estimates = []
        for seed in range(200):
            cfg = SketchConfig(k=k, hash_seed=seed)
            estimates.append(estimate_jaccard(minhash(a, cfg), minhash(b, cfg)))
        tol = 3 * np.sqrt(exact * (1 - exact) / (200 * k)) + 0.01
        assert abs(np.mean(estimates) - exact) <= tol


class TestEstimateJaccard:
    def test_identical_signatures(self):
        sig = minhash(TokenSet(tokens=[1, 2, 3]), SketchConfig(k=64))
        assert estimate_jaccard(sig, sig) == 1.0

    def test_disjoint_sets_score_zero(self):
        cfg = SketchConfig(k=128, hash_seed=7)
        a = minhash(TokenSet(tokens=np.arange(100, dtype=np.uint64)), cfg)
        b = minhash(TokenSet(tokens=np.arange(10**6, 10**6 + 100, dtype=np.uint64)), cfg)
        assert estimate_jaccard(a, b) <= 2 / 128  # collisions only

    def test_incompatible_signatures_rejected(self):
        a = minhash(TokenSet(tokens=[1]), SketchConfig(k=8, hash_seed=1))
        b = minhash(TokenSet(tokens=[1]), SketchConfig(k=8, hash_seed=2))
        with pytest.raises(DataError, match="incompatible-signatures"):
            estimate_jaccard(a, b)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_reflexive_bounded(self, seed):
        cfg = SketchConfig(k=32, hash_seed=seed)
        rng = seeded_rng(seed, "est-sym")
        a = minhash(TokenSet(tokens=rng.integers(0, 1000, 20, dtype=np.uint64)), cfg)
        b = minhash(TokenSet(tokens=rng.integers(0, 1000, 20, dtype=np.uint64)), cfg)
        assert estimate_jaccard(a, b) == estimate_jaccard(b, a)
        assert estimate_jaccard(a, a) == 1.0
        assert 0.0 <= estimate_jaccard(a, b) <= 1.0


def _feature(values, sid):
    return FeatureVector(values=values, source_id=sid)


class TestBuildLibrary:
    def test_order_preserved(self):
        feats = [_feature([0.1 * i, 0.2], f"f{i}") for i in range(3)]
        lib = build_library(feats, QuantConfig(), SketchConfig())
        assert [sid for sid, _ in lib.entries] == ["f0", "f1", "f2"]

    def test_duplicate_id_rejected(self):
        feats = [_feature([0.1], "same"), _feature([0.2], "same")]
        with pytest.raises(DataError, match="duplicate-source-id"):
            build_library(feats, QuantConfig(), SketchConfig())

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="^empty-batch: features$"):
            build_library([], QuantConfig(), SketchConfig())

    def test_mixed_dimensions_rejected(self):
        feats = [_feature([0.1, 0.2], "a"), _feature([0.1, 0.2, 0.3], "b")]
        with pytest.raises(DataError, match=r"^dimension-mismatch: features\[1\] has dim 3, expected 2$"):
            build_library(feats, QuantConfig(), SketchConfig())

    def test_dimension_recorded(self):
        feats = [_feature([0.1, 0.2, 0.3], f"f{i}") for i in range(2)]
        assert build_library(feats, QuantConfig(), SketchConfig()).dim == 3

    def test_rebuild_is_identical(self):
        feats = [_feature([0.3, 0.7, 0.1], f"f{i}") for i in range(4)]
        a = build_library(feats, QuantConfig(), SketchConfig(hash_seed=5))
        b = build_library(feats, QuantConfig(), SketchConfig(hash_seed=5))
        for (_, sa), (_, sb) in zip(a.entries, b.entries):
            np.testing.assert_array_equal(sa.minima, sb.minima)


class TestGateCheck:
    def _library(self, n=10, seed=0):
        rng = seeded_rng(seed, "gate-lib")
        feats = [_feature(rng.uniform(0, 1, 8), f"f{i}") for i in range(n)]
        return feats, build_library(feats, QuantConfig(), SketchConfig())

    def test_member_scores_one_under_max(self):
        feats, lib = self._library()
        res = gate_check(lib, feats[3], GateConfig(j_alpha=1.0, aggregation="max"))
        assert res.score == 1.0 and not res.anomalous

    def test_zero_threshold_always_acceptable(self):
        feats, lib = self._library()
        rng = seeded_rng(1, "gate-any")
        probe = _feature(rng.uniform(0, 1, 8), "probe")
        res = gate_check(lib, probe, GateConfig(j_alpha=0.0))
        assert not res.anomalous

    def test_tie_at_threshold_is_acceptable(self):
        feats, lib = self._library()
        res = gate_check(lib, feats[0], GateConfig(j_alpha=1.0, aggregation="max"))
        assert res.score == 1.0 and not res.anomalous  # score == j_alpha

    def test_verdict_label(self):
        feats, lib = self._library()
        res = gate_check(lib, feats[0], GateConfig(j_alpha=0.5))
        assert res.verdict == "acceptable"
        res = gate_check(lib, _feature(np.full(8, 5.0), "far"), GateConfig(j_alpha=0.5))
        assert (res.verdict, res.anomalous) == ("anomalous", True)

    def test_permutation_invariance_max_and_union(self):
        feats, lib = self._library(n=6)
        rng = seeded_rng(2, "gate-perm")
        probe = _feature(rng.uniform(0, 1, 8), "probe")
        shuffled = _library_from(tuple(reversed(lib.entries)), lib)
        for agg in ("max", "union"):
            a = gate_check(lib, probe, GateConfig(aggregation=agg))
            b = gate_check(shuffled, probe, GateConfig(aggregation=agg))
            assert a.score == b.score and a.anomalous == b.anomalous

    def test_enlarging_library_never_decreases_max_score(self):
        feats, lib = self._library(n=8)
        small = _library_from(lib.entries[:4], lib)
        rng = seeded_rng(3, "gate-mono")
        for i in range(20):
            probe = _feature(rng.uniform(0, 1, 8), f"p{i}")
            s_small = gate_check(small, probe, GateConfig(aggregation="max")).score
            s_full = gate_check(lib, probe, GateConfig(aggregation="max")).score
            assert s_full >= s_small

    def test_fingerprint_mismatch_rejected(self):
        feats = [_feature([0.5, 0.5], "a")]
        lib = build_library(feats, QuantConfig(), SketchConfig(), extract_fingerprint="abc")
        with pytest.raises(DataError, match="incompatible-config"):
            gate_check(lib, feats[0], GateConfig(), extract_fingerprint="def")

    @pytest.mark.parametrize("agg", ["max", "mean", "union"])
    def test_query_of_other_dimension_rejected(self, agg):
        feats, lib = self._library()
        with pytest.raises(DataError, match="dimension-mismatch: query has 9 components"):
            gate_check(lib, _feature(np.full(9, 0.5), "wide"), GateConfig(aggregation=agg))
        with pytest.raises(DataError, match="dimension-mismatch: query has 7 components"):
            gate_check(lib, np.full(7, 0.5), GateConfig(aggregation=agg))

    def test_unknown_dimension_skips_the_check(self):
        feats, lib = self._library()
        unknown = _library_from(lib.entries, lib)
        assert unknown.dim is None
        res = gate_check(unknown, _feature(np.full(9, 0.5), "wide"), GateConfig())
        assert 0.0 <= res.score <= 1.0

    def test_union_aggregation_scores(self):
        feats, lib = self._library(n=5)
        res = gate_check(lib, feats[0], GateConfig(aggregation="union", j_alpha=0.0))
        assert 0.0 <= res.score <= 1.0

    def test_mean_aggregation_bounded_by_max(self):
        feats, lib = self._library(n=6)
        rng = seeded_rng(4, "gate-mean")
        for i in range(10):
            probe = _feature(rng.uniform(0, 1, 8), f"m{i}")
            mean_score = gate_check(lib, probe, GateConfig(aggregation="mean")).score
            max_score = gate_check(lib, probe, GateConfig(aggregation="max")).score
            assert mean_score <= max_score


class TestGateReport:
    def test_rows_become_a_tuple(self):
        report = GateReport("lib.dskl", [GateResult("a", 0.5, "acceptable")])
        assert report.rows == (GateResult("a", 0.5, "acceptable"),)

    @pytest.mark.parametrize(
        "row",
        [(("a", 0.5, "maybe"), "verdict must be acceptable or anomalous, got 'maybe'"),
         (("a", 1.5, "acceptable"), r"score must lie in \[0, 1\], got 1.5"),
         (("a", float("nan"), "anomalous"), r"score must lie in \[0, 1\], got nan")],
    )
    def test_invalid_row_rejected(self, row):
        """A row checks its own score and verdict as it is built."""
        fields, message = row
        with pytest.raises(ConfigError, match=f"^config-invalid: {message}$"):
            GateResult(*fields)


def _library_from(entries, lib):
    return SketchLibrary.from_minima(
        [sid for sid, _ in entries],
        [sig.minima for _, sig in entries],
        sketch_config=lib.sketch_config,
        quant_config=lib.quant_config,
        extract_fingerprint=lib.extract_fingerprint,
    )


class TestLibraryMatrix:
    def _library(self, n=7):
        rng = seeded_rng(5, "lib-matrix")
        feats = [_feature(rng.uniform(0, 1, 8), f"f{i}") for i in range(n)]
        return build_library(feats, QuantConfig(), SketchConfig(k=16))

    def test_minima_matrix_is_one_read_only_object(self):
        lib = self._library()
        matrix = lib.minima_matrix()
        assert lib.minima_matrix() is matrix
        assert matrix.shape == (7, 16) and matrix.dtype == np.uint64
        assert matrix.flags.c_contiguous and not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0

    def test_entry_minima_are_views_of_the_matrix(self):
        lib = self._library()
        matrix = lib.minima_matrix()
        for i, (_, sig) in enumerate(lib.entries):
            assert np.shares_memory(sig.minima, lib.distinct_minima[lib.row_index[i]])
            assert not sig.minima.flags.writeable
            np.testing.assert_array_equal(sig.minima, matrix[i])

    def test_library_is_read_only(self):
        lib = self._library()
        with pytest.raises(AttributeError):
            lib.entries = ()

    @given(order=st.permutations(range(7)))
    @settings(max_examples=20, deadline=None)
    def test_entries_in_any_order_keep_ids_and_rows_aligned(self, order):
        lib = self._library()
        by_id = {sid: sig.minima.copy() for sid, sig in lib.entries}
        shuffled = _library_from([lib.entries[i] for i in order], lib)
        assert shuffled.ids == tuple(f"f{i}" for i in order)
        assert [sid for sid, _ in shuffled.entries] == list(shuffled.ids)
        for sid, row in zip(shuffled.ids, shuffled.minima_matrix()):
            np.testing.assert_array_equal(row, by_id[sid])

    def test_constructing_copies_the_source_rows(self):
        lib = self._library()
        other = _library_from(lib.entries, lib)
        assert not np.shares_memory(other.minima_matrix(), lib.minima_matrix())
        np.testing.assert_array_equal(other.minima_matrix(), lib.minima_matrix())

    def test_mismatched_signature_rejected(self):
        lib = self._library()
        foreign = minhash(TokenSet(tokens=[1, 2, 3]), SketchConfig(k=8, hash_seed=9))
        with pytest.raises(DataError, match="dimension-mismatch"):
            _library_from([("x", foreign)], lib)

    def test_from_minima_checks_row_width(self):
        with pytest.raises(DataError, match="dimension-mismatch"):
            SketchLibrary.from_minima(["a"], [[1, 2, 3]], SketchConfig(k=4), QuantConfig())

    def test_union_signature_cached(self):
        lib = self._library()
        union = lib.union_signature
        assert lib.union_signature is union
        np.testing.assert_array_equal(union.minima, lib.minima_matrix().min(axis=0))


_GATE_REFERENCE = {
    "max": lambda sigs, q: max(estimate_jaccard(s, q) for s in sigs),
    "mean": lambda sigs, q: float(np.mean([estimate_jaccard(s, q) for s in sigs])),
    "union": lambda sigs, q: estimate_jaccard(
        MinHashSignature(
            minima=np.minimum.reduce([s.minima for s in sigs]), k=q.k, hash_seed=q.hash_seed
        ),
        q,
    ),
}


@given(
    rows=st.integers(1, 12),
    dim=st.integers(1, 6),
    k=st.integers(1, 24),
    hash_seed=st.integers(0, 50),
    bin_width=st.sampled_from([0.05, 0.2, 0.5]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_gate_scores_match_per_entry_reference(rows, dim, k, hash_seed, bin_width, data):
    """gate_check on the matrix equals, bit for bit, the per-entry estimators."""
    values = st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim)
    feats = [_feature(data.draw(values), f"f{i}") for i in range(rows)]
    q = QuantConfig(bin_width=bin_width)
    s = SketchConfig(k=k, hash_seed=hash_seed)
    lib = build_library(feats, q, s)
    sigs = [minhash(tokenize(v, q), s) for v in feats]
    probe = _feature(data.draw(values), "probe")
    query = minhash(tokenize(probe, q), s)
    for agg, reference in _GATE_REFERENCE.items():
        res = gate_check(lib, probe, GateConfig(aggregation=agg))
        assert res.score == reference(sigs, query), agg


@given(
    m=st.integers(1, 12),
    k=st.integers(1, 16),
    all_distinct=st.booleans(),
    probe=st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_distinct_rows_gate_equals_full_matrix_reference(m, k, all_distinct, probe, data):
    """Gating against the u distinct rows scores every aggregation exactly as
    a compare with all m rows does, and the views give back the input rows."""
    q, s = QuantConfig(bin_width=0.2), SketchConfig(k=k, hash_seed=3)
    query = minhash(tokenize(_feature(probe, "probe"), q), s).minima
    # pool rows agree with the query on a drawn subset of positions, so
    # match counts spread over 0..k
    u_pool = m if all_distinct else data.draw(st.integers(1, m), label="u_pool")
    uint64s = st.integers(0, 2**64 - 1)
    pool = np.array(
        [
            np.where(
                data.draw(st.lists(st.booleans(), min_size=k, max_size=k), label="match"),
                query,
                np.array(data.draw(st.lists(uint64s, min_size=k, max_size=k)), dtype=np.uint64),
            )
            for _ in range(u_pool)
        ],
        dtype=np.uint64,
    )
    if all_distinct:
        choice = data.draw(st.permutations(range(m)), label="order")
    else:
        choice = data.draw(st.lists(st.integers(0, u_pool - 1), min_size=m, max_size=m))
    rows = pool[choice]
    ids = [f"r{i}" for i in range(m)]
    lib = SketchLibrary.from_minima(ids, rows, s, q)

    assert lib.distinct_minima.shape == (len(np.unique(rows, axis=0)), k)
    np.testing.assert_array_equal(lib.minima_matrix(), rows)
    assert [sid for sid, _ in lib.entries] == ids
    for (_, sig), row in zip(lib.entries, rows):
        np.testing.assert_array_equal(sig.minima, row)

    fractions = _kernels.match_counts(rows, query) / k
    reference = {
        "max": float(fractions.max()),
        "mean": float(fractions.mean()),
        "union": float(np.count_nonzero(rows.min(axis=0) == query)) / k,
    }
    for agg, expected in reference.items():
        score = gate_check(lib, _feature(probe, "probe"), GateConfig(aggregation=agg)).score
        assert score == expected, agg


@given(
    base=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
    extra=st.lists(st.integers(0, 2**64 - 1), max_size=40),
    k=st.integers(1, 32),
    hash_seed=st.integers(0, 50),
)
@settings(max_examples=80, deadline=None)
def test_adding_tokens_never_raises_a_minimum(base, extra, k, hash_seed):
    cfg = SketchConfig(k=k, hash_seed=hash_seed)
    before = minhash(TokenSet(tokens=base), cfg).minima
    after = minhash(TokenSet(tokens=base + extra), cfg).minima
    assert (after <= before).all()
    if set(extra) <= set(base):
        np.testing.assert_array_equal(after, before)


@given(
    rows=st.lists(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3), min_size=1, max_size=10
    ),
    k=st.integers(1, 32),
    hash_seed=st.integers(0, 50),
)
@settings(max_examples=60, deadline=None)
def test_union_signature_is_column_minima_of_members(rows, k, hash_seed):
    """The library's union signature equals the column minima of its members'
    signatures, and the signature of the union of their token sets."""
    q, s = QuantConfig(bin_width=0.2), SketchConfig(k=k, hash_seed=hash_seed)
    feats = [_feature(r, f"f{i}") for i, r in enumerate(rows)]
    lib = build_library(feats, q, s)
    token_sets = [tokenize(v, q) for v in feats]
    members = np.array([minhash(t, s).minima for t in token_sets])
    union = TokenSet(tokens=np.concatenate([t.tokens for t in token_sets]))
    np.testing.assert_array_equal(lib.union_signature.minima, members.min(axis=0))
    np.testing.assert_array_equal(lib.union_signature.minima, minhash(union, s).minima)


_TOKENS = st.one_of(st.sampled_from([0, 1, 8, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


@given(
    pool=st.lists(_TOKENS, min_size=1, max_size=60, unique=True),
    picks=st.lists(st.lists(st.integers(0, 59), min_size=1, max_size=30), min_size=1, max_size=8),
    config=st.sampled_from([(16, 0), (5, 7)]),
    small=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_token_table_minhash_equals_kernel(pool, picks, config, small):
    """minhash through the token table equals hashing every token, bit for
    bit: while the table grows, and once its rows run out (a small table of
    5 rows). Every token is stored until then, each in its own row."""
    k, hash_seed = config
    cfg = SketchConfig(k=k, hash_seed=hash_seed)
    salts = _minhash_salts(k, hash_seed)
    with pytest.MonkeyPatch.context() as mp:
        if small:
            mp.setattr(sketchlib, "_TABLE_BYTES", 8 * k * 5 + 7)
        sketchlib._token_table.cache_clear()
        try:
            table = sketchlib._token_table(k, hash_seed)
            seen = set()
            for pick in picks:
                t = TokenSet(tokens=[pool[i % len(pool)] for i in pick])
                got = minhash(t, cfg).minima
                np.testing.assert_array_equal(got, _kernels.minhash_signature(t.tokens, salts))
                seen.update(t.tokens.tolist())
                assert len(table.index[0]) == min(len(seen), table.values.shape[0])
            keys, rows = table.index
            assert set(keys.tolist()) <= seen
            assert (keys[1:] > keys[:-1]).all()
            np.testing.assert_array_equal(np.sort(rows), np.arange(keys.shape[0]))
            np.testing.assert_array_equal(table.values[rows], _kernels.salted_hashes(keys, salts))
            if small:
                assert table.values.shape[0] == 5
        finally:
            sketchlib._token_table.cache_clear()


def test_token_table_stores_tokens_that_share_low_bits():
    """Tokens that agree in their low 13 bits are each stored, and each
    later lookup reads its own row."""
    k, hash_seed = 8, 3
    cfg, salts = SketchConfig(k=k, hash_seed=hash_seed), _minhash_salts(k, hash_seed)
    tokens = [5, 5 + 2**13, 5 + 2**40]
    sketchlib._token_table.cache_clear()
    try:
        for i in range(len(tokens)):
            minhash(TokenSet(tokens=tokens[: i + 1]), cfg)
        keys, rows = sketchlib._token_table(k, hash_seed).index
        assert keys.tolist() == tokens
        for token in tokens:
            t = TokenSet(tokens=[token])
            np.testing.assert_array_equal(
                minhash(t, cfg).minima, _kernels.minhash_signature(t.tokens, salts)
            )
    finally:
        sketchlib._token_table.cache_clear()


def test_token_table_is_below_numpys_huge_page_size():
    """NumPy asks for transparent huge pages on arrays of 4 MiB and more; the
    table's rows must stay below that, so its untouched pages stay empty."""
    table = sketchlib._TokenTable(_minhash_salts(128, 0))
    assert table.values.shape[0] == 4095
    assert table.values.nbytes < 4 << 20


def test_token_table_shared_by_threads():
    """Threads sketching overlapping sets through one table all get the
    kernel's minima, and every token drawn is stored once, in its own row (a
    lost publish would drop some)."""
    import sys
    import threading

    k, hash_seed = 24, 11
    cfg, salts = SketchConfig(k=k, hash_seed=hash_seed), _minhash_salts(k, hash_seed)
    # a large pool, so new tokens keep arriving and writers often overlap
    pool = seeded_rng(6, "table-threads").integers(0, 2**64, 4000, dtype=np.uint64)
    errors, drawn = [], []

    def work(worker):
        rng = seeded_rng(worker, "table-thread")
        for _ in range(60):
            t = TokenSet(tokens=rng.choice(pool, 40, replace=False))
            drawn.extend(t.tokens.tolist())
            if not np.array_equal(minhash(t, cfg).minima, _kernels.minhash_signature(t.tokens, salts)):
                errors.append(worker)

    interval = sys.getswitchinterval()
    sketchlib._token_table.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        table = sketchlib._token_table(k, hash_seed)
        keys, rows = table.index
        assert keys.tolist() == sorted(set(drawn))
        np.testing.assert_array_equal(table.values[rows], _kernels.salted_hashes(keys, salts))
        np.testing.assert_array_equal(np.sort(rows), np.arange(len(keys)))
    finally:
        sys.setswitchinterval(interval)
        sketchlib._token_table.cache_clear()


def _reference_minima(v, q, s):
    """Sketch with no table and no memo: hash every token of `v`."""
    return _kernels.minhash_signature(tokenize(v, q).tokens, _minhash_salts(s.k, s.hash_seed))


def _memo_state(s):
    table = sketchlib._token_table(s.k, s.hash_seed)
    return len(table.memo), table.memo_bytes


# bin edges, signed zeros and values within one bin, so bin vectors repeat
_MEMO_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.2, -0.2, 0.1, 0.15, 0.19999999999999998]),
    st.floats(-1, 1, allow_nan=False),
)


@pytest.mark.parametrize("budget", ["default", "few-entries"])
@given(
    dim=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_memo_sketches_equal_the_no_memo_reference(budget, dim, data):
    """build_library and gate_check through the signature memo give, bit for
    bit, the libraries, scores and verdicts of sketching every vector with the
    kernel; under two (k, hash_seed) configs in one process, with the memo
    growing and (budget few-entries: two entries of the k=16 table) full."""
    q = QuantConfig(bin_width=0.2)
    vector = st.lists(_MEMO_VALUES, min_size=dim, max_size=dim)
    pool = data.draw(st.lists(vector, min_size=1, max_size=5), label="pool")
    pick = st.integers(0, len(pool) - 1)
    base = data.draw(st.lists(pick, min_size=1, max_size=10), label="base")
    queries = data.draw(st.lists(pick, min_size=1, max_size=10), label="queries")
    feats = [_feature(pool[i], f"b{j}") for j, i in enumerate(base)]
    with pytest.MonkeyPatch.context() as mp:
        if budget == "few-entries":
            entry = 8 * dim + 8 * 16 + sketchlib._MEMO_ENTRY_OVERHEAD
            mp.setattr(sketchlib, "_MEMO_BYTES", 2 * entry + 1)
        sketchlib._token_table.cache_clear()
        try:
            for s in (SketchConfig(k=16, hash_seed=0), SketchConfig(k=5, hash_seed=7)):
                lib = build_library(feats, q, s)
                rows = [_reference_minima(v, q, s) for v in feats]
                ref = SketchLibrary.from_minima(lib.ids, rows, s, q)
                np.testing.assert_array_equal(lib.distinct_minima, ref.distinct_minima)
                np.testing.assert_array_equal(lib.row_index, ref.row_index)
                for j in queries:
                    probe = _feature(pool[j], "probe")
                    query = _reference_minima(probe, q, s)
                    fractions = _kernels.match_counts(ref.minima_matrix(), query) / s.k
                    expected = {
                        "max": float(fractions.max()),
                        "mean": float(fractions.mean()),
                        "union": float(np.count_nonzero(ref.union_signature.minima == query))
                        / s.k,
                    }
                    for agg, score in expected.items():
                        res = gate_check(lib, probe, GateConfig(aggregation=agg))
                        assert (res.score, res.anomalous) == (score, score < 0.5), agg
                table = sketchlib._token_table(s.k, s.hash_seed)
                assert table.memo_bytes <= sketchlib._MEMO_BYTES
                for key, minima in table.memo.items():
                    assert not minima.flags.writeable
                    bins = np.frombuffer(key, dtype=np.int64)
                    np.testing.assert_array_equal(
                        minima,
                        _kernels.minhash_signature(
                            _kernels.hash_bins(bins), _minhash_salts(s.k, s.hash_seed)
                        ),
                    )
        finally:
            sketchlib._token_table.cache_clear()


@given(dim=st.integers(1, 4), k=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_build_library_dedups_as_the_whole_matrix_reference(dim, k, data):
    """build_library, deduplicating as it sketches, stores the distinct rows
    and row indices that deduplicating the whole (m, k) matrix gives, bit for
    bit. At k <= 4 different bin vectors often share minima, and share a row."""
    q, s = QuantConfig(bin_width=0.2), SketchConfig(k=k, hash_seed=data.draw(st.integers(0, 9)))
    vector = st.lists(_MEMO_VALUES, min_size=dim, max_size=dim)
    pool = data.draw(st.lists(vector, min_size=1, max_size=6), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    feats = [_feature(pool[i], f"f{j}") for j, i in enumerate(picks)]
    lib = build_library(feats, q, s)
    distinct, row_index = reference_path.library_rows([_reference_minima(v, q, s) for v in feats])
    assert lib.distinct_minima.tobytes() == distinct.tobytes()
    assert lib.distinct_minima.shape == distinct.shape
    assert lib.row_index.tolist() == row_index.tolist()


def test_bin_vectors_with_equal_minima_share_a_row():
    """The library keys rows by their minima, not by their bin vectors: two
    bin vectors one bin apart in one of 48 components sketch to the same 128
    minima with probability (47/49)**128, about 0.5%, and then share a row."""
    q, s = QuantConfig(), SketchConfig()
    rng = seeded_rng(16, "minima-collision")
    for _ in range(5000):
        bins = rng.integers(0, 20, 48)
        other = bins.copy()
        other[rng.integers(48)] += 1
        v, w = ((b + 0.5) * q.bin_width for b in (bins, other))
        if np.array_equal(_reference_minima(v, q, s), _reference_minima(w, q, s)):
            break
    else:
        pytest.fail("no pair of bin vectors with equal minima found")
    assert not np.array_equal(sketchlib._quantize(v, q), sketchlib._quantize(w, q))
    lib = build_library([_feature(v, "a"), _feature(w, "b"), _feature(v + 1.0, "c")], q, s)
    assert lib.distinct_minima.shape == (2, 128)
    assert lib.row_index.tolist() == [0, 0, 1]


def test_rejected_queries_leave_the_memo_untouched():
    """A query that a check rejects raises its named error and adds nothing
    to the memo, through gate_check and through build_library."""
    q, s = QuantConfig(), SketchConfig(k=16, hash_seed=4)
    rng = seeded_rng(8, "memo-rejects")
    feats = [_feature(rng.uniform(0, 1, 4), f"f{i}") for i in range(5)]
    lib = build_library(feats, q, s, extract_fingerprint="fp")
    unknown_dim = _library_from(lib.entries, lib)
    gate_check(lib, feats[0], GateConfig(), "fp")
    before = _memo_state(s)
    assert before[0] > 0
    rejected = [
        (lib, [0.5, np.nan, 0.5, 0.5], "fp", "non-finite-value"),
        (lib, [0.5, 0.5, np.inf, 0.5], "fp", "non-finite-value"),
        (lib, [0.5, 0.5, 0.5, 1e300], "fp", "value-out-of-range: component 3"),
        (lib, [0.5, 0.5, 0.5], "fp", "dimension-mismatch: query has 3 components"),
        (lib, feats[1].values, "other", "incompatible-config"),
        (unknown_dim, [], None, "empty-token-set"),
        (lib, feats[1].values.reshape(4, 1), "fp", "dimension-mismatch: query is not a vector"),
        (unknown_dim, feats[1].values.reshape(4, 1), None, "query is not a vector"),
        (lib, 0.5, "fp", "dimension-mismatch: query is not a vector"),
        (unknown_dim, 0.5, None, "query is not a vector"),
    ]
    for library, values, fingerprint, error in rejected:
        for agg in ("max", "mean", "union"):
            with pytest.raises(DataError, match=error):
                gate_check(library, np.array(values), GateConfig(aggregation=agg), fingerprint)
            assert _memo_state(s) == before, error
    for values, error in [([np.nan] * 4, "non-finite-value"), ([], "empty-token-set")]:
        with pytest.raises(DataError, match=error):
            build_library([_feature(values, "bad")], q, s)
        assert _memo_state(s) == before, error


def test_memo_shared_by_threads():
    """Threads sketching overlapping bin vectors through one memo get the
    kernel's minima, and the memo's byte count is the sum of its entries'
    charges (a lost update would break it), with the budget reached."""
    import sys
    import threading

    q, s = QuantConfig(bin_width=0.2), SketchConfig(k=24, hash_seed=12)
    pool = seeded_rng(9, "memo-threads").uniform(-1, 1, (60, 6))
    expected = [_reference_minima(v, q, s) for v in pool]
    entry = 8 * 6 + 8 * 24 + sketchlib._MEMO_ENTRY_OVERHEAD
    errors = []

    def work(worker):
        rng = seeded_rng(worker, "memo-thread")
        for i in rng.integers(0, len(pool), 300):
            if not np.array_equal(sketchlib._sketch(pool[i], q, s), expected[i]):
                errors.append(worker)

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sketchlib, "_MEMO_BYTES", 20 * entry)
        sketchlib._token_table.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert errors == []
            table = sketchlib._token_table(s.k, s.hash_seed)
            assert len(table.memo) == 20
            assert table.memo_bytes == 20 * entry
        finally:
            sys.setswitchinterval(interval)
            sketchlib._token_table.cache_clear()
