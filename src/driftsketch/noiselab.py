"""Image noise models and the incremental-noise sensitivity protocol.

Four corruption operators (additive Gaussian, salt-and-pepper impulses,
multiplicative speckle, Poisson shot noise) share a "larger level = more
noise" scalar, and a sweep runner corrupts a test set at an increasing
ladder of levels and scores each level against baseline features as one
drift period: cosine, KS, and the gate's anomaly rate.
All operators clamp back into [0,1] and are deterministic under a fixed
seed.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    DataError,
    ImageGrid,
    _check_seed,
    derive_seed,
    seeded_rng,
    validate_image,
)
from .extract import extract_batch
from .sketchlib import build_library, gate_check
from .stats import drift_report

NOISE_KINDS = ("gaussian", "salt_pepper", "speckle", "poisson")

# Poisson photon scale: lambda = POISSON_BASE / level, so level in (0,1]
# ranges from one photon per intensity unit at 255 (mild) down to 255 (harsh).
POISSON_BASE = 255.0


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    level: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"config-invalid: unknown noise kind {self.kind!r}")
        _check_level(self.kind, self.level)
        _check_seed(self.seed)


def _check_level(kind, level):
    if not np.isfinite(level):
        raise ConfigError(f"invalid-{_level_name(kind)}: {level!r}")
    if kind in ("gaussian", "speckle"):
        if level < 0:
            raise ConfigError(f"invalid-{_level_name(kind)}: must be >= 0, got {level}")
    else:
        if not 0.0 <= level <= 1.0:
            raise ConfigError(f"invalid-{_level_name(kind)}: must lie in [0,1], got {level}")


def _level_name(kind):
    return {"gaussian": "sigma", "salt_pepper": "fraction", "speckle": "variance"}.get(
        kind, "level"
    )


def _replace_pixels(img, pixels):
    return ImageGrid(
        width=img.width,
        height=img.height,
        channels=img.channels,
        pixels=np.clip(pixels, 0.0, 1.0),
    )


def gaussian_noise(img, sigma, seed=0):
    """Additive pixel noise drawn from N(0, sigma^2), clamped to [0,1]."""
    _check_level("gaussian", sigma)
    validate_image(img)
    if sigma == 0.0:
        return img
    rng = seeded_rng(seed, "noise.gaussian")
    return _replace_pixels(img, img.pixels + rng.standard_normal(img.pixels.size) * sigma)


def salt_pepper(img, fraction, seed=0):
    """Set an exact count of pixel positions to 0 or 1 (all channels together).

    Exactly round(fraction * width * height) distinct positions are corrupted
    (rounding half up), each going black or white with equal probability.
    """
    _check_level("salt_pepper", fraction)
    validate_image(img)
    n_positions = img.width * img.height
    count = int(np.floor(fraction * n_positions + 0.5))
    if count == 0:
        return img
    rng = seeded_rng(seed, "noise.salt_pepper")
    positions = rng.permutation(n_positions)[:count]
    extremes = rng.integers(0, 2, size=count).astype(np.float64)
    pixels = img.pixels.reshape(n_positions, img.channels).copy()
    pixels[positions] = extremes[:, None]
    return _replace_pixels(img, pixels)


def speckle(img, variance, seed=0):
    """Multiplicative noise: p * (1 + n) with n ~ N(0, variance), clamped."""
    _check_level("speckle", variance)
    validate_image(img)
    if variance == 0.0:
        return img
    rng = seeded_rng(seed, "noise.speckle")
    factor = 1.0 + rng.standard_normal(img.pixels.size) * np.sqrt(variance)
    return _replace_pixels(img, img.pixels * factor)


def poisson_noise(img, level, seed=0):
    """Photon-counting noise: p -> Poisson(p * lambda) / lambda, lambda = 255/level.

    Smaller level means more photons and milder noise; level 0 is the
    identity by convention (infinite photon count), keeping sweep ladders
    uniform across kinds.
    """
    _check_level("poisson", level)
    validate_image(img)
    if level == 0.0:
        return img
    lam = POISSON_BASE / level
    rng = seeded_rng(seed, "noise.poisson")
    counts = rng.poisson(img.pixels * lam).astype(np.float64)
    return _replace_pixels(img, counts / lam)


_NOISE_OPS = {
    "gaussian": gaussian_noise,
    "salt_pepper": salt_pepper,
    "speckle": speckle,
    "poisson": poisson_noise,
}


def apply_noise(img, spec):
    """Corrupt an image per a NoiseSpec."""
    return _NOISE_OPS[spec.kind](img, spec.level, spec.seed)


@dataclass(frozen=True)
class SensitivityRow:
    level: float
    cosine_score: float
    ks_d: float
    ks_p: float
    anomaly_rate: float


@dataclass(frozen=True)
class SensitivityReport:
    noise_kind: str
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"config-invalid: unknown noise kind {self.noise_kind!r}")
        if not self.rows:
            raise DataError("empty-report: at least one level required")
        levels = [r.level for r in self.rows]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DataError(f"invalid-levels: not strictly increasing: {levels}")
        for r in self.rows:
            if not (
                0.0 <= r.ks_d <= 1.0
                and 0.0 <= r.ks_p <= 1.0
                and -1.0 <= r.cosine_score <= 1.0
                and 0.0 <= r.anomaly_rate <= 1.0
            ):
                raise DataError(f"out-of-range-statistic: level {r.level}")


def sensitivity_sweep(baseline, test_images, kind, levels, pipeline, seed=0):
    """Corrupt the test set at each ladder level and score it against the baseline.

    `baseline` is a list of FeatureVectors, sketched once into a gate
    library. `test_images` is any iterable of ImageGrids; it is read once, in
    order, after the kind, baseline and ladder are checked, so a generator
    that decodes one file at a time keeps one test image (and its noised
    copies) alive. Every (level, image) pair draws its own seeded stream; the
    levels are then scored against the baseline as the periods of one
    `drift_report`, and each level's anomaly rate is the fraction of its
    images the gate flags.
    """
    if kind not in NOISE_KINDS:
        raise ConfigError(f"config-invalid: unknown noise kind {kind!r}")
    if not baseline:
        raise DataError("empty-batch: baseline and test sets must be non-empty")
    levels = [float(lv) for lv in levels]
    if not levels:
        raise ConfigError("invalid-levels: empty ladder")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"invalid-levels: not strictly increasing: {levels}")
    for lv in levels:
        _check_level(kind, lv)

    noise_op = _NOISE_OPS[kind]
    library = build_library(baseline, pipeline.quant, pipeline.sketch)
    per_level = [[] for _ in levels]
    flag_counts = [0] * len(levels)
    for j, img in enumerate(test_images):
        noised = [
            noise_op(img, level, derive_seed(seed, f"sweep.{kind}.{li}.{j}"))
            for li, level in enumerate(levels)
        ]
        feats = extract_batch(noised, pipeline.extract, [str(j)] * len(levels))
        for li, v in enumerate(feats):
            per_level[li].append(v)
            flag_counts[li] += gate_check(library, v, pipeline.gate).anomalous
    if not per_level[0]:
        raise DataError("empty-batch: baseline and test sets must be non-empty")
    batches = [(str(level), feats) for level, feats in zip(levels, per_level)]
    scored = drift_report(baseline, batches, pipeline.stats, gate_flag_counts=flag_counts)
    rows = [
        SensitivityRow(level, p.cosine_score, p.ks_d, p.ks_p, p.gate_flag_count / p.n_images)
        for level, p in zip(levels, scored.periods)
    ]
    return SensitivityReport(noise_kind=kind, rows=rows)
