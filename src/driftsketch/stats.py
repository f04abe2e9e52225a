"""Distribution-level drift scoring.

Two-sample Kolmogorov-Smirnov statistic with asymptotic p-values, batch
cosine similarity, and the per-period drift report those feed. The KS test
is applied to the pooled scalar components of feature-vector batches; the
pooled values are treated as independent for the p-value, a stated
simplification.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, _check_count, _check_seed, seeded_rng


@dataclass(frozen=True)
class StatsConfig:
    ks_alpha: float = 0.05
    cosine_mode: str = "centroid"
    pairwise_cap: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.ks_alpha < 1.0:
            raise ConfigError(f"config-invalid: ks_alpha must lie in (0,1), got {self.ks_alpha}")
        if self.cosine_mode not in ("centroid", "mean_pairwise"):
            raise ConfigError(
                f"config-invalid: cosine_mode must be centroid or mean_pairwise, "
                f"got {self.cosine_mode!r}"
            )
        _check_count("pairwise_cap", self.pairwise_cap, 1)
        _check_seed(self.seed)


@dataclass(frozen=True)
class PeriodStats:
    period_id: str
    n_images: int
    ks_d: float
    ks_p: float
    cosine_score: float
    gate_flag_count: int
    drift_flag: bool


@dataclass(frozen=True)
class DriftReport:
    baseline_id: str
    ks_alpha: float
    periods: tuple

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(self.periods))
        if not self.periods:
            raise DataError("empty-report: at least one period required")
        for p in self.periods:
            if not (0.0 <= p.ks_d <= 1.0 and 0.0 <= p.ks_p <= 1.0 and -1.0 <= p.cosine_score <= 1.0):
                raise DataError(f"out-of-range-statistic: period {p.period_id!r}")
            if p.drift_flag != (p.ks_p < self.ks_alpha):
                raise DataError(f"inconsistent-flag: period {p.period_id!r}")


def _as_sample(x, name):
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise DataError(f"empty-sample: {name}")
    if not np.isfinite(arr).all():
        raise DataError(f"non-finite-value: {name}")
    return arr


def ks_statistic(a, b):
    """Exact two-sample KS statistic: sup over x of |F_a(x) - F_b(x)|.

    Right-continuous ECDFs evaluated after all tied values are processed,
    so ties never inflate the supremum.
    """
    a = np.sort(_as_sample(a, "a"))
    b = np.sort(_as_sample(b, "b"))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


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
    into [0, 1].
    """
    if not 0.0 <= d_stat <= 1.0 or not math.isfinite(d_stat):
        raise DataError(f"invalid-D: {d_stat!r}")
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


def _vector_values(v):
    return v.values if hasattr(v, "values") else np.asarray(v, dtype=np.float64)


def cosine(a, b):
    """Cosine similarity a.b / (|a||b|), clamped into [-1, 1]."""
    av, bv = _vector_values(a), _vector_values(b)
    if av.shape[0] != bv.shape[0]:
        raise DataError(f"dimension-mismatch: {av.shape[0]} vs {bv.shape[0]}")
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    if na == 0.0 or nb == 0.0:
        raise DataError("zero-vector")
    if np.array_equal(av, bv):
        return 1.0  # exact reflexivity; the quotient form can be one ulp off
    return float(np.clip(av @ bv / (na * nb), -1.0, 1.0))


def _batch_matrix(batch, name):
    if not batch:
        raise DataError(f"empty-batch: {name}")
    rows = [_vector_values(v) for v in batch]
    d = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.shape[0] != d:
            raise DataError(f"dimension-mismatch: {name}[{i}] has dim {r.shape[0]}, expected {d}")
    return np.stack(rows)


def batch_cosine(batch_a, batch_b, cfg):
    """One cosine score for a pair of batches.

    centroid mode: cosine of the two mean vectors. mean_pairwise mode: mean
    cosine over all cross pairs, or over `pairwise_cap` seeded-sampled pairs
    (with replacement) when the cross product exceeds the cap.
    """
    mat_a = _batch_matrix(batch_a, "a")
    mat_b = _batch_matrix(batch_b, "b")
    if mat_a.shape[1] != mat_b.shape[1]:
        raise DataError(f"dimension-mismatch: {mat_a.shape[1]} vs {mat_b.shape[1]}")
    if cfg.cosine_mode == "centroid":
        return cosine(mat_a.mean(axis=0), mat_b.mean(axis=0))
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


def pool_scalars(batch):
    """Concatenate all components of all vectors, order-stable."""
    if not batch:
        raise DataError("empty-batch")
    return np.concatenate([_vector_values(v) for v in batch])


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
    base_pool = pool_scalars(baseline)
    rows = []
    for (period_id, vectors), flags in zip(periods, gate_flag_counts):
        pool = pool_scalars(vectors)
        d_stat = ks_statistic(base_pool, pool)
        p_val = ks_pvalue(d_stat, base_pool.size, pool.size)
        rows.append(
            PeriodStats(
                period_id=str(period_id),
                n_images=len(vectors),
                ks_d=d_stat,
                ks_p=p_val,
                cosine_score=batch_cosine(baseline, vectors, cfg),
                gate_flag_count=int(flags),
                drift_flag=p_val < cfg.ks_alpha,
            )
        )
    return DriftReport(baseline_id=baseline_id, ks_alpha=cfg.ks_alpha, periods=tuple(rows))
