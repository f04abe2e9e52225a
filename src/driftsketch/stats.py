"""Distribution-level drift scoring.

Two-sample Kolmogorov-Smirnov statistic with asymptotic p-values, batch
cosine similarity, and the per-period drift report those feed. The KS test
is applied to the pooled scalar components of feature-vector batches; the
pooled values are treated as independent for the p-value, a stated
simplification.
"""

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .core import _COSINE, _OPEN_UNIT, _UNIT, ConfigError, DataError, _as_vector, _at_least
from .core import _batch, _check_fields, _check_seed, _decode_value, _frozen_vector, _held
from .core import _one_of, _pow2_scaled, _rows, seeded_rng


@dataclass(frozen=True)
class StatsConfig:
    ks_alpha: Annotated[float, _OPEN_UNIT] = 0.05
    cosine_mode: Annotated[str, _one_of("centroid", "mean_pairwise")] = "centroid"
    pairwise_cap: Annotated[int, _at_least(1)] = 10000
    seed: Annotated[int, _check_seed] = 0

    __post_init__ = _check_fields


@dataclass(frozen=True)
class PeriodStats:
    period_id: str
    n_images: Annotated[int, _at_least(1)]
    ks_d: Annotated[float, _UNIT]
    ks_p: Annotated[float, _UNIT]
    cosine_score: Annotated[float, _COSINE]
    gate_flag_count: Annotated[int, _at_least(0)]
    drift_flag: bool

    def __post_init__(self):
        _check_fields(self)
        if self.gate_flag_count > self.n_images:
            raise ConfigError(
                f"config-invalid: gate_flag_count must be <= n_images {self.n_images}, "
                f"got {self.gate_flag_count}"
            )


@dataclass(frozen=True)
class DriftReport:
    baseline_id: str
    ks_alpha: Annotated[float, _OPEN_UNIT]
    periods: Annotated[object, _rows(PeriodStats)]

    def __post_init__(self):
        _check_fields(self)
        if not self.periods:
            raise DataError("empty-report: at least one period required")
        for p in self.periods:
            if p.drift_flag != (p.ks_p < self.ks_alpha):
                raise DataError(f"inconsistent-flag: period {p.period_id!r}")


def _nonempty(sample, name):
    if sample.size == 0:
        raise DataError(f"empty-sample: {name}")
    return sample


def _as_sample(x, name):
    """`x` flattened, read as a vector's values are ("non-real-value: a"), and not empty."""
    return _nonempty(_frozen_vector(_held(x, f": {name}").ravel(), f": {name}"), name)


def _ecdf(sample, x):
    """The right-continuous ECDF of a sorted sample at the points x."""
    return np.searchsorted(sample, x, side="right") / sample.size


def _ks_sorted(a, b, a_at_a=None):
    """KS D of two sorted samples: the largest |F_a(x) - F_b(x)| over the
    pooled points, each ECDF counting with sorted queries (a's points, then
    b's). ``a_at_a``, a's ECDF at its own points, is computed here unless a
    caller that scores one a against many b passes it in."""
    if a_at_a is None:
        a_at_a = _ecdf(a, a)
    return float(max(
        np.abs(a_at_a - _ecdf(b, a)).max(),
        np.abs(_ecdf(a, b) - _ecdf(b, b)).max(),
    ))


def ks_statistic(a, b):
    """Exact two-sample KS statistic: sup over x of |F_a(x) - F_b(x)|.

    Right-continuous ECDFs evaluated after all tied values are processed,
    so ties never inflate the supremum.
    """
    return _ks_sorted(np.sort(_as_sample(a, "a")), np.sort(_as_sample(b, "b")))


# Below this, the Kolmogorov survival function exceeds 1 - 1e-12, and the
# truncated alternating series no longer converges; return the limit.
_LAMBDA_SMALL = 0.2
_SERIES_TOL = 1e-10
_SERIES_MAX_TERMS = 100


def ks_pvalue(d_stat, n, m):
    """Asymptotic two-sample KS p-value with small-sample correction.

    p = Q(lambda) with n_e = n m / (n + m) and
    lambda = (sqrt(n_e) + 0.12 + 0.11 / sqrt(n_e)) * D,
    Q(lambda) = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2),
    truncated when a term drops below 1e-10 (at most 100 terms), clamped
    into [0, 1]. Each argument is read as a field of its annotation is.
    """
    d_stat = _decode_value(Annotated[float, _UNIT], d_stat, "d_stat")  # as PeriodStats.ks_d
    n, m = _decode_value(int, n, "n"), _decode_value(int, m, "m")
    if n < 1 or m < 1:
        raise DataError(f"empty-sample: n={n}, m={m}")
    n_e = n * m / (n + m)
    lam = (math.sqrt(n_e) + 0.12 + 0.11 / math.sqrt(n_e)) * d_stat
    if lam < _LAMBDA_SMALL:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, _SERIES_MAX_TERMS + 1):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term < _SERIES_TOL:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def cosine(a, b):
    """Cosine similarity a.b / (|a||b|), clamped into [-1, 1]."""
    av, bv = _as_vector(a, "a").values, _as_vector(b, "b").values
    if av.shape[0] != bv.shape[0]:
        raise DataError(f"dimension-mismatch: {av.shape[0]} vs {bv.shape[0]}")
    sa, sb = _pow2_scaled(av), _pow2_scaled(bv)
    na, nb = np.linalg.norm(sa), np.linalg.norm(sb)
    if na == 0.0 or nb == 0.0:
        raise DataError("zero-vector")
    if np.array_equal(av, bv):
        return 1.0  # exact reflexivity; the quotient form can be one ulp off
    return float(np.clip(sa @ sb / (na * nb), -1.0, 1.0))


def batch_cosine(batch_a, batch_b, cfg):
    """One cosine score for a pair of batches.

    centroid mode: cosine of the two mean vectors. mean_pairwise mode: mean
    cosine over all cross pairs, or over `pairwise_cap` seeded-sampled pairs
    (with replacement) when the cross product exceeds the cap. Both batches
    are read by ``core._batch``, b's vectors of the dimension of a's.
    """
    mat_a = np.stack([v.values for v in _batch(batch_a, "a")])
    mat_b = np.stack([v.values for v in _batch(batch_b, "b", mat_a.shape[1])])
    if cfg.cosine_mode == "centroid":
        return cosine(_pow2_scaled(mat_a).mean(axis=0), _pow2_scaled(mat_b).mean(axis=0))
    mat_a, mat_b = _pow2_scaled(mat_a, axis=1), _pow2_scaled(mat_b, axis=1)
    norms_a = np.linalg.norm(mat_a, axis=1)
    norms_b = np.linalg.norm(mat_b, axis=1)
    if (norms_a == 0.0).any() or (norms_b == 0.0).any():
        raise DataError("zero-vector")
    unit_a = mat_a / norms_a[:, None]
    unit_b = mat_b / norms_b[:, None]
    n_pairs = mat_a.shape[0] * mat_b.shape[0]
    if n_pairs <= cfg.pairwise_cap:
        score = (unit_a @ unit_b.T).mean()
    else:
        rng = seeded_rng(cfg.seed, "stats.pairs")
        ia = rng.integers(0, mat_a.shape[0], size=cfg.pairwise_cap)
        ib = rng.integers(0, mat_b.shape[0], size=cfg.pairwise_cap)
        score = np.einsum("ij,ij->i", unit_a[ia], unit_b[ib]).mean()
    return float(np.clip(score, -1.0, 1.0))


def pool_scalars(batch, name="batch"):
    """Concatenate every vector's components, order-stable (``core._batch`` reads `name`)."""
    return np.concatenate([v.values for v in _batch(batch, name)])


def drift_report(baseline, periods, cfg, gate_flag_counts=None, baseline_id="baseline"):
    """Score each period against the baseline and assemble the report.

    `periods` is an ordered list of (period_id, vectors); `gate_flag_counts`
    optionally carries the per-period count of gate-anomalous items (zeros
    when the gate was not run).
    """
    if not periods:
        raise DataError("empty-report: no periods supplied")
    if gate_flag_counts is None:
        gate_flag_counts = [0] * len(periods)
    if len(gate_flag_counts) != len(periods):
        raise DataError(
            f"length-mismatch: {len(periods)} periods, {len(gate_flag_counts)} gate counts"
        )
    # sorted, and its own ECDF taken, once; each period's KS D is
    # ks_statistic's, bit for bit
    base_pool = np.sort(_nonempty(pool_scalars(baseline, "a"), "a"))
    base_at_base = _ecdf(base_pool, base_pool)
    rows = []
    for (period_id, vectors), flags in zip(periods, gate_flag_counts):
        pool = pool_scalars(vectors, "b")
        d_stat = _ks_sorted(base_pool, np.sort(_nonempty(pool, "b")), base_at_base)
        p_val = ks_pvalue(d_stat, base_pool.size, pool.size)
        rows.append(
            PeriodStats(
                period_id=str(period_id),
                n_images=len(vectors),
                ks_d=d_stat,
                ks_p=p_val,
                cosine_score=batch_cosine(baseline, vectors, cfg),
                gate_flag_count=flags,
                drift_flag=p_val < cfg.ks_alpha,
            )
        )
    return DriftReport(baseline_id=baseline_id, ks_alpha=cfg.ks_alpha, periods=tuple(rows))
