"""Shared domain types, validation, and deterministic seeded randomness.

Every stochastic operation in the package draws from `seeded_rng`, a Philox
counter-based generator keyed by (seed, stream label). Equal arguments give
bit-identical streams across runs and platforms; distinct labels under one
seed give independent streams.
"""

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

MAX_SEED = 2**64 - 1


class DriftSketchError(Exception):
    """Base class for all package errors."""


class ConfigError(DriftSketchError):
    """Invalid configuration or usage (CLI exit code 2)."""


class DataError(DriftSketchError):
    """Invalid or incompatible data (CLI exit code 3)."""


class StoreError(DataError):
    """Malformed or corrupt persisted artifact."""


def _frozen_array(values, dtype=np.float64):
    arr = np.ascontiguousarray(values, dtype=dtype).ravel()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ImageGrid:
    """Decoded raster: intensities in [0,1], row-major, channel-interleaved.

    The constructor coerces `pixels` to a read-only flat float64 array but
    does not validate; call `validate_image` to check the invariants.
    """

    width: int
    height: int
    channels: int
    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _frozen_array(self.pixels))

    @classmethod
    def from_array(cls, arr):
        """Build from a (height, width) or (height, width, channels) array."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 2:
            h, w = arr.shape
            ch = 1
        elif arr.ndim == 3:
            h, w, ch = arr.shape
        else:
            raise DataError(f"dimension-mismatch: expected 2-D or 3-D array, got {arr.ndim}-D")
        return cls(width=int(w), height=int(h), channels=int(ch), pixels=arr)

    def to_array(self):
        """Return a writable (height, width, channels) copy of the pixels."""
        return self.pixels.reshape(self.height, self.width, self.channels).copy()


def validate_image(img):
    """Raise DataError naming the first offending index if `img` is invalid."""
    if img.width < 1 or img.height < 1:
        raise DataError(f"dimension-mismatch: width={img.width}, height={img.height}")
    if img.channels not in (1, 3):
        raise DataError(f"dimension-mismatch: channels must be 1 or 3, got {img.channels}")
    expected = img.width * img.height * img.channels
    if img.pixels.shape[0] != expected:
        raise DataError(
            f"dimension-mismatch: {img.pixels.shape[0]} pixels supplied, expected {expected}"
        )
    if img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0:
        return  # min and max propagate NaN, which fails both comparisons
    finite = np.isfinite(img.pixels)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise DataError(f"non-finite-pixel({idx})")
    idx = int(np.argmin((img.pixels >= 0.0) & (img.pixels <= 1.0)))
    raise DataError(f"out-of-range-pixel({idx}): value {float(img.pixels[idx])!r}")


@dataclass(frozen=True)
class FeatureVector:
    """A d-dimensional real feature vector plus the id of its source image."""

    values: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))

    @property
    def dim(self):
        return self.values.shape[0]


def _is_integer(value):
    """True for Python and NumPy integers; a bool is not a count or a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed):
    if not _is_integer(seed) or not 0 <= int(seed) <= MAX_SEED:
        raise ConfigError(f"invalid-seed: expected integer in [0, 2^64), got {seed!r}")
    return int(seed)


def _check_count(name, value, low):
    if not _is_integer(value):
        raise ConfigError(f"config-invalid: {name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"config-invalid: {name} must be >= {low}, got {value}")


def seeded_rng(seed, stream_label):
    """Deterministic random stream for (seed, label).

    Generator: Philox-4x64 keyed by the 128-bit BLAKE2b digest of the label,
    with the 64-bit seed as the BLAKE2b key. Same (seed, label) gives a
    bit-identical stream on every run; different labels or seeds give
    independent streams.
    """
    seed = _check_seed(seed)
    digest = hashlib.blake2b(
        stream_label.encode("utf-8"), digest_size=16, key=seed.to_bytes(8, "little")
    ).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


def derive_seed(seed, label):
    """Fold a label into a seed, yielding a 64-bit child seed.

    Used to hand independent sub-seeds to nested seeded operations (per-image
    noise draws, per-trial sketches) without sharing streams.
    """
    seed = _check_seed(seed)
    digest = hashlib.blake2b(
        label.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    """Bundle of all stage configs; the unit recorded in report outputs.

    Field types live in their own modules (extract, sketchlib, stats); the
    imports here are deferred to keep the module graph acyclic. Each stage
    config checks itself on construction; this one checks the schema version.
    """

    schema_version: int = SCHEMA_VERSION
    extract: object = None
    quant: object = None
    sketch: object = None
    gate: object = None
    stats: object = None

    def __post_init__(self):
        from .extract import ExtractConfig
        from .sketchlib import GateConfig, QuantConfig, SketchConfig
        from .stats import StatsConfig

        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"config-invalid: schema_version must be {SCHEMA_VERSION}")
        defaults = {
            "extract": ExtractConfig,
            "quant": QuantConfig,
            "sketch": SketchConfig,
            "gate": GateConfig,
            "stats": StatsConfig,
        }
        for name, cls in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, cls())

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        from .extract import ExtractConfig
        from .sketchlib import GateConfig, QuantConfig, SketchConfig
        from .stats import StatsConfig

        return cls(
            extract=ExtractConfig(**d.get("extract", {})),
            quant=QuantConfig(**d.get("quant", {})),
            sketch=SketchConfig(**d.get("sketch", {})),
            gate=GateConfig(**d.get("gate", {})),
            stats=StatsConfig(**d.get("stats", {})),
            schema_version=d.get("schema_version", SCHEMA_VERSION),
        )
