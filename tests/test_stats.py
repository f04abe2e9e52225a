import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsketch import (
    DataError,
    FeatureVector,
    StatsConfig,
    batch_cosine,
    cosine,
    drift_report,
    ks_pvalue,
    ks_statistic,
    pool_scalars,
)
from driftsketch.core import seeded_rng

# independent high-precision summation of Q(lambda) at D=0.2, n=m=50
# (lambda = (sqrt(25) + 0.12 + 0.11/5) * 0.2 = 1.0284)
Q_AT_D02_N50 = 0.24079199341891815


def brute_force_ks(a, b):
    """Scan |F_a - F_b| at every pooled point, counting <= x directly."""
    a = list(a)
    b = list(b)
    best = 0.0
    for x in a + b:
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def direct_q(lam, terms=10000):
    total = 0.0
    for j in range(1, terms + 1):
        total += (-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
    return 2.0 * total


samples = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
)


class TestKsStatistic:
    def test_identical_samples_zero(self):
        rng = seeded_rng(1, "ks-id")
        a = rng.standard_normal(30)
        assert ks_statistic(a, a) == 0.0

    def test_fully_separated_is_one(self):
        assert ks_statistic([0, 0, 0], [1, 1, 1]) == 1.0

    def test_matches_brute_force_oracle(self):
        rng = seeded_rng(2, "ks-oracle")
        for _ in range(50):
            a = rng.standard_normal(20)
            b = rng.standard_normal(20) + rng.uniform(-1, 1)
            assert abs(ks_statistic(a, b) - brute_force_ks(a, b)) < 1e-12

    def test_matches_oracle_with_ties(self):
        rng = seeded_rng(3, "ks-ties")
        for _ in range(50):
            a = rng.integers(0, 5, 15).astype(float)
            b = rng.integers(0, 5, 10).astype(float)
            assert abs(ks_statistic(a, b) - brute_force_ks(a, b)) < 1e-12

    @given(a=samples, b=samples)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        d = ks_statistic(a, b)
        assert 0.0 <= d <= 1.0
        assert d == ks_statistic(b, a)

    @given(a=samples, b=samples)
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_increasing_transform(self, a, b):
        d1 = ks_statistic(a, b)
        f = lambda xs: [math.atan(x) + 3 * x for x in xs]  # strictly increasing
        d2 = ks_statistic(f(a), f(b))
        assert abs(d1 - d2) < 1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError, match="empty-sample"):
            ks_statistic([], [1.0])


class TestKsPvalue:
    def test_zero_statistic_gives_one(self):
        assert ks_pvalue(0.0, 10, 10) == 1.0

    def test_full_separation_tiny_p(self):
        assert ks_pvalue(1.0, 100, 100) < 1e-6

    def test_series_oracle_value(self):
        assert abs(ks_pvalue(0.2, 50, 50) - Q_AT_D02_N50) < 1e-9

    def test_matches_direct_summation_across_range(self):
        for d in (0.1, 0.15, 0.25, 0.4, 0.6, 0.9):
            n = m = 50
            n_e = n * m / (n + m)
            lam = (math.sqrt(n_e) + 0.12 + 0.11 / math.sqrt(n_e)) * d
            if lam < 0.2:
                continue
            expected = min(1.0, max(0.0, direct_q(lam)))
            assert abs(ks_pvalue(d, n, m) - expected) < 1e-9

    def test_monotone_non_increasing_in_d(self):
        ps = [ks_pvalue(d, 40, 60) for d in np.linspace(0, 1, 101)]
        assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))

    def test_invalid_d_rejected(self):
        with pytest.raises(DataError, match="invalid-D"):
            ks_pvalue(1.5, 10, 10)

    def test_bad_sizes_rejected(self):
        with pytest.raises(DataError, match="empty-sample"):
            ks_pvalue(0.5, 0, 10)


class TestCosine:
    def test_identical_vectors(self):
        v = FeatureVector(values=[1.0, 2.0, 3.0])
        assert cosine(v, v) == 1.0

    def test_orthogonal(self):
        assert cosine(FeatureVector(values=[1, 0]), FeatureVector(values=[0, 1])) == 0.0

    def test_opposite(self):
        v = FeatureVector(values=[0.3, -0.4])
        w = FeatureVector(values=[-0.3, 0.4])
        assert cosine(v, w) == -1.0

    def test_scale_invariance(self):
        rng = seeded_rng(4, "cos-scale")
        a = FeatureVector(values=rng.standard_normal(6))
        b = FeatureVector(values=rng.standard_normal(6))
        assert cosine(FeatureVector(values=3.5 * a.values), b) == pytest.approx(
            cosine(a, b), abs=1e-15
        )
        assert cosine(FeatureVector(values=-2.0 * a.values), b) == pytest.approx(
            -cosine(a, b), abs=1e-15
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError, match="zero-vector"):
            cosine(FeatureVector(values=[0.0, 0.0]), FeatureVector(values=[1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension-mismatch"):
            cosine(FeatureVector(values=[1.0]), FeatureVector(values=[1.0, 2.0]))


class TestBatchCosine:
    def test_same_batch_centroid_is_one(self):
        rng = seeded_rng(5, "bc-same")
        batch = [FeatureVector(values=rng.uniform(0, 1, 4)) for _ in range(10)]
        assert batch_cosine(batch, batch, StatsConfig()) == 1.0

    def test_orthogonal_batches_zero_both_modes(self):
        a = [FeatureVector(values=[1.0, 0.0])] * 5
        b = [FeatureVector(values=[0.0, 1.0])] * 7
        assert batch_cosine(a, b, StatsConfig(cosine_mode="centroid")) == 0.0
        assert batch_cosine(a, b, StatsConfig(cosine_mode="mean_pairwise")) == 0.0

    def test_mean_pairwise_matches_double_loop(self):
        rng = seeded_rng(6, "bc-pairs")
        a = [FeatureVector(values=rng.standard_normal(5)) for _ in range(10)]
        b = [FeatureVector(values=rng.standard_normal(5)) for _ in range(10)]
        got = batch_cosine(a, b, StatsConfig(cosine_mode="mean_pairwise"))
        expected = np.mean([[cosine(x, y) for y in b] for x in a])
        assert abs(got - expected) < 1e-12

    def test_pairwise_cap_sampling_is_seeded(self):
        rng = seeded_rng(7, "bc-cap")
        a = [FeatureVector(values=rng.standard_normal(3)) for _ in range(30)]
        b = [FeatureVector(values=rng.standard_normal(3)) for _ in range(30)]
        cfg = StatsConfig(cosine_mode="mean_pairwise", pairwise_cap=100, seed=11)
        assert batch_cosine(a, b, cfg) == batch_cosine(a, b, cfg)
        full = batch_cosine(a, b, StatsConfig(cosine_mode="mean_pairwise"))
        assert abs(batch_cosine(a, b, cfg) - full) < 0.2  # it is an estimate

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError, match="empty-batch"):
            batch_cosine([], [FeatureVector(values=[1.0])], StatsConfig())


class TestPoolScalars:
    def test_single_vector(self):
        np.testing.assert_array_equal(
            pool_scalars([FeatureVector(values=[1.0, 2.0])]), [1.0, 2.0]
        )

    def test_two_singletons(self):
        got = pool_scalars([FeatureVector(values=[1.0]), FeatureVector(values=[2.0])])
        np.testing.assert_array_equal(got, [1.0, 2.0])

    def test_length(self):
        batch = [FeatureVector(values=np.zeros(4)) for _ in range(3)]
        assert pool_scalars(batch).shape == (12,)


class TestDriftReport:
    def _batch(self, seed, n=20, shift=0.0):
        rng = seeded_rng(seed, "dr-batch")
        return [
            FeatureVector(values=rng.uniform(0, 1, 6) + shift, source_id=f"{seed}/{i}")
            for i in range(n)
        ]

    def test_baseline_copies_show_no_drift(self):
        base = self._batch(1)
        report = drift_report(base, [("p1", base), ("p2", base)], StatsConfig())
        for p in report.periods:
            assert p.ks_d == 0.0 and p.ks_p == 1.0 and p.cosine_score == 1.0
            assert not p.drift_flag and p.gate_flag_count == 0

    def test_shifted_period_flags(self):
        base = self._batch(2)
        shifted = self._batch(3, shift=10.0)
        report = drift_report(base, [("ok", self._batch(2)), ("bad", shifted)], StatsConfig())
        assert not report.periods[0].drift_flag
        assert report.periods[1].drift_flag
        assert report.periods[1].ks_d > 0.9
        assert report.periods[1].ks_p < 0.05

    def test_period_order_and_ids_preserved(self):
        base = self._batch(4)
        periods = [(f"m{i}", self._batch(10 + i)) for i in range(5)]
        report = drift_report(base, periods, StatsConfig())
        assert [p.period_id for p in report.periods] == [f"m{i}" for i in range(5)]

    def test_gate_counts_recorded(self):
        base = self._batch(5)
        report = drift_report(base, [("p", base)], StatsConfig(), gate_flag_counts=[7])
        assert report.periods[0].gate_flag_count == 7

    def test_flag_consistency_validated(self):
        report = drift_report(self._batch(6), [("p", self._batch(6))], StatsConfig())
        assert report.periods[0].drift_flag == (report.periods[0].ks_p < report.ks_alpha)

    def test_deterministic(self):
        base = self._batch(7)
        periods = [("p1", self._batch(8)), ("p2", self._batch(9))]
        cfg = StatsConfig(cosine_mode="mean_pairwise", pairwise_cap=50, seed=2)
        assert drift_report(base, periods, cfg) == drift_report(base, periods, cfg)
