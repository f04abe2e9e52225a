import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsketch import (
    ConfigError,
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
from driftsketch import stats
from driftsketch.stats import DriftReport, PeriodStats
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

    def test_non_real_sample_rejected(self):
        # a sample is read as every record reads an array
        with pytest.raises(DataError, match=r"^non-real-value: a: \['a'\]$"):
            ks_statistic(["a"], [1.0])


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
        # a ConfigError: d_stat is read as a field ruled to [0, 1] is
        error = r"^config-invalid: d_stat must lie in \[0, 1\], got 1.5$"
        with pytest.raises(ConfigError, match=error):
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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite-value: a"):
            cosine([bad, 1.0], [1.0, 1.0])
        with pytest.raises(DataError, match="non-finite-value: b"):
            cosine([1.0, 1.0], [1.0, bad])

    @pytest.mark.parametrize("exponent", [-1074 + 60, -1022, -600, 600, 1000])
    def test_extreme_finite_magnitudes(self, exponent):
        # |v|^2 overflows above 2^512 and underflows below 2^-538; the score
        # must still equal the one at unit scale, with no RuntimeWarning
        rng = seeded_rng(8, "cos-extreme")
        a, b = rng.uniform(0.5, 1.0, 6), rng.uniform(-1.0, 1.0, 6)
        expected = cosine(a, b)
        scale = 2.0**exponent
        assert cosine(a * scale, b) == expected
        assert cosine(a * scale, b * scale) == expected

    def test_subnormal_vector_is_not_zero(self):
        assert cosine([1e-320, 1e-320], [3e-320, 3e-320]) == pytest.approx(1.0)
        assert cosine([1e-320, 0.0], [0.0, 5e-324]) == 0.0

    @given(
        # magnitudes in [1e-3, 1e3] stay normal under any shift drawn here
        values=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
            min_size=2,
            max_size=8,
        ).filter(any),
        shift=st.integers(-900, 900),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scaling_keeps_every_bit(self, values, shift):
        a = np.array(values)
        b = np.arange(a.size) + 1.0
        assert cosine(np.ldexp(a, shift), b) == cosine(a, b)


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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("mode", ["centroid", "mean_pairwise"])
    def test_non_finite_rejected(self, bad, mode):
        good = [np.ones(3), np.arange(3.0) + 1.0]
        cfg = StatsConfig(cosine_mode=mode)
        with pytest.raises(DataError, match="non-finite-value: a"):
            batch_cosine([good[0], np.array([1.0, bad, 1.0])], good, cfg)
        with pytest.raises(DataError, match="non-finite-value: b"):
            batch_cosine(good, [np.array([bad, 1.0, 1.0]), good[1]], cfg)

    @pytest.mark.parametrize("scale", [1e200, 1e-320])
    @pytest.mark.parametrize("mode", ["centroid", "mean_pairwise"])
    def test_extreme_finite_magnitudes(self, scale, mode):
        # unscaled, every squared norm overflows at 1e200 and underflows to
        # zero at 1e-320
        rng = seeded_rng(9, "bc-extreme")
        a = [FeatureVector(values=rng.uniform(0.5, 1.0, 4) * scale) for _ in range(5)]
        b = [FeatureVector(values=rng.uniform(0.5, 1.0, 4) * scale) for _ in range(5)]
        got = batch_cosine(a, b, StatsConfig(cosine_mode=mode))
        assert 0.9 < got <= 1.0
        if scale > 1.0:  # subnormal inputs carry too few bits to compare
            unit = [[FeatureVector(values=v.values / scale) for v in vs] for vs in (a, b)]
            assert got == pytest.approx(batch_cosine(*unit, StatsConfig(cosine_mode=mode)))


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


_NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteReals:
    """A report holds only reals its JSON-lines file can carry: each real
    field's range rule rejects NaN, which fails every comparison, and the
    infinities."""

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("field", ["ks_d", "ks_p", "cosine_score"])
    def test_period_stats(self, field, bad):
        values = dict(period_id="p", n_images=1, ks_d=0.1, ks_p=0.5, cosine_score=0.9,
                      gate_flag_count=0, drift_flag=False)
        values[field] = bad
        interval = re.escape("[-1, 1]" if field == "cosine_score" else "[0, 1]")
        with pytest.raises(ConfigError, match=f"^config-invalid: {field} must lie in {interval}, "
                                              f"got {bad}$"):
            PeriodStats(**values)

    @pytest.mark.parametrize("bad", _NON_FINITE)
    def test_drift_report(self, bad):
        period = PeriodStats("p", 1, 0.1, 0.5, 0.9, 0, bad < 0.5)
        with pytest.raises(ConfigError, match=rf"^config-invalid: ks_alpha must lie in \(0, 1\), "
                                              f"got {bad}$"):
            DriftReport("b", bad, [period])


def pooled_ks(a, b):
    """The KS D as ks_statistic computed it before the baseline was sorted
    once per report: both ECDFs counted at the concatenated sorted samples."""
    a, b = np.sort(np.asarray(a, dtype=np.float64)), np.sort(np.asarray(b, dtype=np.float64))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


# few distinct positive values, so both samples hold ties, within and across
# them, and a batch of one-component vectors never has a zero centroid
rounded = st.lists(
    st.floats(0.1, 3.0).map(lambda x: round(x, 1)), min_size=1, max_size=60
)


class TestSortedBaselineKs:
    @given(a=rounded, b=rounded)
    @settings(max_examples=300, deadline=None)
    def test_sorted_helper_and_report_equal_ks_statistic(self, a, b):
        """drift_report sorts the pooled baseline once and shares ks_statistic's
        sorted helper; each period's D is the public function's, bit for bit,
        and the earlier pooled-query formula's."""
        d = ks_statistic(a, b)
        assert d == pooled_ks(a, b) == brute_force_ks(a, b)
        assert stats._ks_sorted(np.sort(a), np.sort(b)) == d
        base = [FeatureVector(values=[x]) for x in a]
        periods = [("b", [FeatureVector(values=[x]) for x in b]), ("a", base)]
        report = drift_report(base, periods, StatsConfig())
        assert [p.ks_d for p in report.periods] == [d, 0.0]
