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
from typing import Annotated

import numpy as np

from .core import _COSINE, _FINITE, _NONNEGATIVE, _UNIT, ConfigError, DataError, FeatureVector
from .core import ImageGrid, _batch, _check_fields, _check_seed, _decode_value, _one_of, _rows
from .core import NOISE_KINDS, derive_seed, seeded_rng
from .extract import extract_batch
from .sketchlib import build_library, gate_check
from .stats import drift_report

_NOISE_KIND = _one_of(*NOISE_KINDS)  # the rule of every noise kind, field or argument

# Poisson photon scale: lambda = POISSON_BASE / level, so level in (0,1]
# ranges from one photon per intensity unit at 255 (mild) down to 255 (harsh).
POISSON_BASE = 255.0


# each kind's level: the name its operator's argument and errors give it, and its annotation
_LEVELS = {
    "gaussian": ("sigma", Annotated[float, _NONNEGATIVE]),
    "salt_pepper": ("fraction", Annotated[float, _UNIT]),
    "speckle": ("variance", Annotated[float, _NONNEGATIVE]),
    "poisson": ("level", Annotated[float, _UNIT]),
}


@dataclass(frozen=True)
class NoiseSpec:
    kind: Annotated[str, _NOISE_KIND]
    level: object  # a float, read by its kind's `_LEVELS` entry
    seed: Annotated[int, _check_seed] = 0

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "level", _check_level(self.kind, self.level))


def _check_level(kind, level):
    """`level` read by its kind's `_LEVELS` entry; a Poisson level is also 0
    or one NumPy's sampler takes."""
    name, hint = _LEVELS[kind]
    level = _decode_value(hint, level, name)
    if kind == "poisson" and level > 0.0:
        # the largest mean Generator.poisson draws from, by NumPy's own formula
        top = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)
        if POISSON_BASE / level > top:
            raise ConfigError(
                f"invalid-level: must be 0 or at least {POISSON_BASE / top!r}, "
                f"the smallest level NumPy's Poisson sampler takes, got {level}"
            )
    return level


def _replace_pixels(img, pixels):
    """A grid like `img` holding the new array `pixels`, clamped to [0,1] in
    place and handed over read-only, so the grid holds it without a copy."""
    np.clip(pixels, 0.0, 1.0, out=pixels)
    pixels.flags.writeable = False
    return ImageGrid(width=img.width, height=img.height, channels=img.channels, pixels=pixels)


def gaussian_noise(img, sigma, seed=0):
    """Additive pixel noise drawn from N(0, sigma^2), clamped to [0,1]."""
    sigma = _check_level("gaussian", sigma)
    if sigma == 0.0:
        return img
    rng = seeded_rng(seed, "noise.gaussian")
    with np.errstate(over="ignore"):  # a sigma past ~4e307 draws +-inf, which the clamp takes
        shift = rng.standard_normal(img.pixels.size) * sigma
    return _replace_pixels(img, img.pixels + shift)


def salt_pepper(img, fraction, seed=0):
    """Set an exact count of pixel positions to 0 or 1 (all channels together).

    Exactly round(fraction * width * height) distinct positions are corrupted
    (rounding half up), each going black or white with equal probability.
    """
    fraction = _check_level("salt_pepper", fraction)
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
    variance = _check_level("speckle", variance)
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
    level = _check_level("poisson", level)
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
    level: Annotated[float, _FINITE]
    cosine_score: Annotated[float, _COSINE]
    ks_d: Annotated[float, _UNIT]
    ks_p: Annotated[float, _UNIT]
    anomaly_rate: Annotated[float, _UNIT]

    __post_init__ = _check_fields


@dataclass(frozen=True)
class SensitivityReport:
    noise_kind: Annotated[str, _NOISE_KIND]
    rows: Annotated[object, _rows(SensitivityRow)]

    def __post_init__(self):
        _check_fields(self)
        if not self.rows:
            raise DataError("empty-report: at least one level required")
        levels = [r.level for r in self.rows]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DataError(f"invalid-levels: not strictly increasing: {levels}")


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
    _NOISE_KIND(kind, "kind")
    baseline = _batch(baseline, "baseline")
    levels = [_check_level(kind, lv) for lv in levels]
    if not levels:
        raise ConfigError("invalid-levels: empty ladder")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"invalid-levels: not strictly increasing: {levels}")

    noise_op = _NOISE_OPS[kind]
    # under ids of the sweep's own: as in drift_report, baseline ids may repeat
    own_ids = [FeatureVector(v.values, str(i)) for i, v in enumerate(baseline)]
    library = build_library(own_ids, pipeline.quant, pipeline.sketch)
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
        raise DataError("empty-batch: test_images")
    batches = [(str(level), feats) for level, feats in zip(levels, per_level)]
    scored = drift_report(baseline, batches, pipeline.stats, gate_flag_counts=flag_counts)
    rows = [
        SensitivityRow(level, p.cosine_score, p.ks_d, p.ks_p, p.gate_flag_count / p.n_images)
        for level, p in zip(levels, scored.periods)
    ]
    return SensitivityReport(noise_kind=kind, rows=rows)
