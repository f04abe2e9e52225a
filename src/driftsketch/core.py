"""Shared domain types, validation, and deterministic seeded randomness.

`_typed` types fields by the annotations of their dataclass, and checks the
rules they carry: `_decode` calls it on every JSON document the package
reads back, and every record calls it (by `_check_fields`) as it is built,
so a fault reads the same either way. `_parse_text` types config-file
values and CSV cells by the same annotations.

Every stochastic operation in the package draws from `seeded_rng`, a Philox
counter-based generator keyed by (seed, stream label). Equal arguments give
bit-identical streams across runs and platforms; distinct labels under one
seed give independent streams. `_first_draw` takes the first 64-bit draw of
a stream without building its generator, as the MinHash salts do.
"""

import dataclasses
import hashlib
import reprlib
import sys
import typing
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

MAX_SEED = 2**64 - 1

# the package: a module reads from it, at call time, a class of a module it does
# not import, and its name table (`__init__._HOMES`) imports that module then
_package = sys.modules[__package__]


class DriftSketchError(Exception):
    """Base class for all package errors."""


class ConfigError(DriftSketchError):
    """Invalid configuration or usage (CLI exit code 2)."""


class DataError(DriftSketchError):
    """Invalid or incompatible data (CLI exit code 3)."""


class StoreError(DataError):
    """Malformed or corrupt persisted artifact."""


@dataclass(frozen=True)
class ImageGrid:
    """Decoded raster: intensities in [0,1], row-major, channel-interleaved.

    The constructor holds `pixels` as a flat float64 array of its own (see
    `_held`) and checks the invariants by `validate_image`, so every grid,
    built by a caller or decoded, is valid.
    """

    width: int
    height: int
    channels: int
    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _held(self.pixels, ": ImageGrid.pixels").ravel())
        validate_image(self)

    @classmethod
    def from_array(cls, arr):
        """Build from a (height, width) or (height, width, channels) array."""
        arr = _held(arr, ": ImageGrid.pixels")
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
    if not (_is_integer(img.width) and _is_integer(img.height) and _is_integer(img.channels)):
        raise DataError(
            f"dimension-mismatch: width, height and channels must be integers, got "
            f"{img.width!r}, {img.height!r}, {img.channels!r}"
        )
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
    """A d-dimensional real feature vector plus the id of its source image,
    valid by construction: see `_frozen_vector`; a `source_id` is a str."""

    values: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        if not isinstance(self.source_id, str):
            raise DataError(f"malformed-id: {reprlib.repr(self.source_id)} is not a string")
        object.__setattr__(self, "values", _frozen_vector(self.values, f"({self.source_id})"))

    @property
    def dim(self):
        return self.values.shape[0]


def _sealed(arr):
    """True for a contiguous array that is read-only, as is every array it
    views, down to an owner or bytes: a buffer no caller can write through,
    such as a row of a loaded embedding matrix or an array its producer
    made read-only as it handed it over, so a record may share it instead
    of copying."""
    ok = isinstance(arr, np.ndarray) and arr.flags.c_contiguous
    while ok and isinstance(arr, np.ndarray):
        ok, arr = not arr.flags.writeable, arr.base
    return ok and (arr is None or isinstance(arr, bytes))


def _held(values, where, dtype=np.float64):
    """`values` as an array a record holds, the one way every record takes
    an array: of `dtype`, C-contiguous and read-only, copied unless
    `_sealed` (a list or tuple is read into a new array once), so a record
    never shares or changes a caller's array.

    float64 takes reals (a bool array as 0 and 1); DataError("non-real-value
    <where>") names anything else (text, complex, ragged nesting). An integer `dtype` takes integers
    from 0 to its largest value only; DataError("value-out-of-range<where>")
    names a float, a negative or too large an integer, which a cast would
    truncate, wrap or overflow.
    """
    if isinstance(values, np.ndarray) and values.dtype == dtype and _sealed(values):
        return values
    real = dtype == np.float64
    try:
        arr = np.asarray(values)
        if not real and arr.dtype.kind == "f" and not isinstance(values, np.ndarray):
            arr = np.asarray(values, dtype=object)  # ints each side of 2**63 read as floats
        kind = arr.dtype.kind
        # an object array holds Python numbers (integers past 64 bits, say) or anything else
        ok = kind in ("biuf" if real else "iu") or kind == "O" and all(
            map(_is_real if real else _is_integer, arr.ravel().tolist())
        )
        if ok and not real and arr.size:
            ok = 0 <= int(arr.min()) and int(arr.max()) <= np.iinfo(dtype).max
    except (ValueError, TypeError):  # ragged nesting
        ok = False
    if not ok and real:
        raise DataError(f"non-real-value{where}: {reprlib.repr(values)}")
    if not ok:
        raise DataError(
            f"value-out-of-range{where}: expected integers in [0, {np.iinfo(dtype).max}], "
            f"got {reprlib.repr(values)}"
        )
    if not isinstance(values, (list, tuple)) or arr.dtype != dtype or not arr.flags.c_contiguous:
        arr = arr.astype(dtype, order="C")
    arr.flags.writeable = False
    return arr


def _frozen_vector(values, where):
    """`values` held by `_held` as a 1-D array of finite components; else
    DataError("dimension-mismatch<where> is not a vector: shape ...") or
    DataError("non-finite-value<where>")."""
    arr = _held(values, where)
    if arr.ndim != 1:
        raise DataError(f"dimension-mismatch{where} is not a vector: shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"non-finite-value{where}")
    return arr


def _pow2_scaled(x, axis=None):
    """x times the power of two (per row with axis=1) that brings its largest
    magnitude into [0.5, 1). Cosines are scale-invariant and this scale is
    exact short of deep underflow, so normal-range scores keep every bit,
    while near the overflow or subnormal limit no dot product overflows and
    no norm vanishes."""
    _, exp = np.frexp(np.abs(x).max(axis=axis, keepdims=True, initial=0.0))
    return np.ldexp(x, -exp)


def _as_vector(v, name):
    """`v` as a FeatureVector, the one way every function reads a vector: a
    FeatureVector as it is, anything else checked first with the errors
    naming the argument `name` ("non-finite-value: a"), with the empty id."""
    return v if isinstance(v, FeatureVector) else FeatureVector(_frozen_vector(v, f": {name}"))


def _batch(vectors, name, dim=None):
    """`vectors` as a tuple of FeatureVectors, each read by `_as_vector` as
    ``<name>[i]``, the one way every function reads a batch; then
    DataError("empty-batch: <name>"), or DataError("dimension-mismatch:
    <name>[i] has dim x, expected d") for the first not of `dim` (the first's)."""
    batch = tuple(_as_vector(v, f"{name}[{i}]") for i, v in enumerate(vectors))
    if not batch:
        raise DataError(f"empty-batch: {name}")
    dim = batch[0].dim if dim is None else dim
    for i, v in enumerate(batch):
        if v.dim != dim:
            raise DataError(f"dimension-mismatch: {name}[{i}] has dim {v.dim}, expected {dim}")
    return batch


def _distinct_ids(ids):
    """`ids` as a tuple of distinct strings, the one way every writer, reader
    and builder checks a batch's ids; DataError("malformed-id: 7 is not a
    string") or DataError("duplicate-source-id: 'a'") names the first fault."""
    ids = tuple(ids)
    seen = set()
    for sid in ids:
        if not isinstance(sid, str):
            raise DataError(f"malformed-id: {reprlib.repr(sid)} is not a string")
        if sid in seen:
            raise DataError(f"duplicate-source-id: {sid!r}")
        seen.add(sid)
    return ids


def _is_integer(value):
    """True for Python and NumPy integers; a bool is not a count or a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    """True for Python and NumPy integers and floats; a bool is not a number."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_seed(seed, name="seed"):
    """`seed` as an int in [0, 2^64), typed as an ``int`` field is; also a field's rule."""
    seed = _decode_value(int, seed, name)
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"invalid-seed: expected integer in [0, 2^64), got {seed!r}")
    return seed


def seeded_rng(seed, stream_label):
    """Deterministic random stream for (seed, label).

    Generator: Philox-4x64 keyed by the 128-bit BLAKE2b digest of the label,
    with the 64-bit seed as the BLAKE2b key. Same (seed, label) gives a
    bit-identical stream on every run; different labels or seeds give
    independent streams.
    """
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, stream_label)))


def _stream_key(seed, stream_label):
    """The 128-bit Philox key of the stream `seeded_rng(seed, stream_label)`."""
    digest = hashlib.blake2b(
        stream_label.encode("utf-8"), digest_size=16, key=_check_seed(seed).to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


_M64 = 2**64 - 1


def _first_draw(seed, stream_label):
    """``seeded_rng(seed, stream_label).integers(0, 2**64, dtype=np.uint64)``,
    the first 64-bit output of the stream, computed with Python integers so
    that no generator is built and ``numpy.random`` is not imported: one
    Philox-4x64-10 block (Salmon et al., SC 2011) at counter 1, where NumPy
    starts, under the stream's key; its first word."""
    key = _stream_key(seed, stream_label)
    k0, k1, c0, c1, c2, c3 = key & _M64, key >> 64, 1, 0, 0, 0
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _M64, (p0 >> 64) ^ c3 ^ k1, p0 & _M64
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _M64, (k1 + 0xBB67AE8584CAA73B) & _M64
    return c0


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


# annotation -> the types of the JSON values it takes; a bool only where bool is named
_JSON_TYPES = {int: int, float: (int, float), str: str, bool: bool, list: list, dict: dict}
_BOOLS = {"true": True, "false": False, "1": True, "0": False}
_UNTYPED = (object, np.ndarray)  # an array field is typed by its `_array` rule


@lru_cache(maxsize=None)
def _field_types(cls):
    """{field name: annotation, any ``Annotated`` rule kept} of a dataclass, in field order."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


@lru_cache(maxsize=None)
def _field_plan(hint):
    """(X, optional, nested, JSON types, rule) of an annotation X or
    ``Annotated[X, rule]``, either ``| None`` or not: `nested` is whether X
    is a dataclass, the JSON types are those X takes, and `rule` is None or
    ``rule(value, name)``, which returns the value typed as X to hold, or raises."""
    args = typing.get_args(hint)
    inner = [a for a in args if a is not type(None)]
    optional = len(inner) < len(args)
    if optional:
        hint = inner[0]
    rule = getattr(hint, "__metadata__", (None,))[0]  # only an ``Annotated`` hint has one
    hint = hint.__origin__ if rule else hint
    return hint, optional, dataclasses.is_dataclass(hint), _JSON_TYPES.get(hint, ()), rule


@lru_cache(maxsize=None)
def _decode_plan(cls):
    """{field name: ``_field_plan`` of its annotation} of a dataclass."""
    return {name: _field_plan(hint) for name, hint in _field_types(cls).items()}


def _at_least(low):
    """Rule: a count >= `low`."""
    def rule(value, name):
        if value < low:
            raise ConfigError(f"config-invalid: {name} must be >= {low}, got {value}")
        return value
    return rule


def _within(interval):
    """Rule: a real in `interval` ("[0, 1)"), which its error spells from the parsed bounds."""
    lo, hi = map(float, interval[1:-1].split(","))
    text = f"{interval[0]}{lo:g}, {hi:g}{interval[-1]}"
    def rule(value, name):
        above = lo <= value if interval[0] == "[" else lo < value
        if above and (value <= hi if interval[-1] == "]" else value < hi):
            return value
        raise ConfigError(f"config-invalid: {name} must lie in {text}, got {value}")
    return rule


def _one_of(*choices):
    """Rule: one of the strings `choices`."""
    text = " or ".join([", ".join(choices[:-1]), choices[-1]])
    def rule(value, name):
        if value not in choices:
            raise ConfigError(f"config-invalid: {name} must be {text}, got {value!r}")
        return value
    return rule


# every interval a real field or argument lies in, each defined once
_UNIT = _within("[0, 1]")  # a KS statistic, a p-value, a rate or a fraction
_COSINE = _within("[-1, 1]")
_OPEN_UNIT = _within("(0, 1)")  # a significance level
_DECAY = _within("[0, 1)")  # a moment's decay rate
_POSITIVE = _within("(0, inf)")
_NONNEGATIVE = _within("[0, inf)")
_FINITE = _within("(-inf, inf)")

# the noise lab's corruption kinds, named here so that the CLI lists them without loading it
NOISE_KINDS = ("gaussian", "salt_pepper", "speckle", "poisson")


def _rows(cls):
    """Rule: the rows of a report, an iterable of `cls` records, held as a
    tuple; DataError("malformed-row") names anything else; `cls` is its ``row_class``."""
    def rule(rows, _):
        try:
            rows = tuple(rows)
        except TypeError:
            got = reprlib.repr(rows)
            raise DataError(f"malformed-row: expected {cls.__name__} rows, got {got}") from None
        for row in rows:
            if not isinstance(row, cls):
                raise DataError(f"malformed-row: expected {cls.__name__}, got {reprlib.repr(row)}")
        return rows
    rule.row_class = cls
    return rule


def _array(name, dtype=np.float64, ndim=None):
    """Rule: an array held by `_held` as `dtype`, of `ndim` dimensions if
    given, its errors naming it `name`; it types an ``np.ndarray`` field."""
    def rule(value, _):
        arr = _held(value, f": {name}", dtype)
        if ndim is not None and arr.ndim != ndim:
            raise DataError(f"dimension-mismatch: {name} of shape {arr.shape}, expected {ndim}-D")
        return arr
    return rule


def _decode(cls, obj, **given):
    """An instance of dataclass `cls` from the JSON object `obj`, typed by its
    annotations; ConfigError("config-invalid: ...") names the first fault.

    The keys of `obj` and `given` (fields already built) must be exactly the
    class's fields; a missing key is named alone, as in ``'k'``. Each value
    is typed and checked by ``_typed``, as a record's constructor checks it,
    then the class checks its rules across fields as it is built.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"config-invalid: expected an object, got {reprlib.repr(obj)}")
    plan = _decode_plan(cls)
    for name in obj:
        if name not in plan or name in given:
            raise ConfigError(f"config-invalid: unknown key {reprlib.repr(name)}")
    return cls(**_typed(cls, {**obj, **given}))


def _typed(cls, values):
    """`values`, a dict holding every field of dataclass `cls`, each value
    typed in place by its annotation, then checked by its rule, in field
    order: an ``int`` takes an integer, a ``float`` a float or an integer as
    ``_jdump`` writes a whole float (below 1e17 and exact), ``str``,
    ``bool``, ``list`` and ``dict`` that type, ``object`` and ``np.ndarray``
    anything, ``X | None`` also None, unruled, and a dataclass an instance
    of it, as it is, or a JSON object, decoded in turn. A NumPy scalar
    becomes the Python value it equals.
    ConfigError("config-invalid: ...") or the rule names the first fault."""
    for name, field in _decode_plan(cls).items():
        if name not in values:
            raise ConfigError(f"config-invalid: {name!r}")
        values[name] = _read(field, values[name], name)
    return values


def _check_fields(record):
    """Type and check every field of a dataclass instance in place by
    ``_typed``; each record calls it as it is built, or has it as its
    ``__post_init__``."""
    _typed(type(record), vars(record))


def _decode_value(hint, value, name):
    """The argument `name` read as a field annotated `hint` is: one text per fault."""
    return _read(_field_plan(hint), value, name)


def _read(field, value, name):
    """`value` typed by the ``_field_plan`` `field` as ``_typed`` says, then
    checked by the field's rule."""
    hint, optional, nested, types, rule = field
    if value is None and optional:
        return value
    if nested and isinstance(value, dict):
        value = _decode(hint, value)
    elif type(value) is not hint and hint not in _UNTYPED:  # else held as it is
        value = value.item() if isinstance(value, np.generic) else value
        ok = isinstance(value, types) and (hint is bool) == isinstance(value, bool)
        if ok and hint is float:
            ok = isinstance(value, float) or abs(value) < 1e17 and float(value) == value
            value = float(value) if ok else value
        if not ok:
            kind = hint.__name__ + (" or null" if optional else "")
            raise ConfigError(f"config-invalid: {name} must be {kind}, got {reprlib.repr(value)}")
    return value if rule is None else rule(value, name)


def _number(kind, text):
    """`text` read by `kind`, ``int`` or ``float``, from ASCII text without
    ``_``: Python's own parsers also take digit-group underscores (``1_0``
    is 10) and the digits of other scripts (``١٢`` is 12). ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not ASCII number text: {text!r}")
    return kind(text)


def _parse_text(hint, text, name):
    """A config-file value, a CSV cell or a command-line number, parsed by
    its field's annotation: a number by `_number`, a bool is ``true``,
    ``false``, ``1`` or ``0`` in any case, and only an ``X | None`` field
    takes ``none``."""
    hint, optional, *_ = _field_plan(hint)
    if optional and text.lower() == "none":
        return None
    try:
        if hint is bool:
            return _BOOLS[text.lower()]
        return _number(hint, text) if hint in (int, float) else hint(text)
    except (ValueError, KeyError):
        raise ConfigError(f"config-invalid: cannot parse {name} = {text!r}") from None


SCHEMA_VERSION = 1


def _stage_configs():
    """{PipelineConfig section: its class}, read from `_package` when first
    needed, which keeps the module graph acyclic."""
    names = {"extract": "ExtractConfig", "quant": "QuantConfig", "sketch": "SketchConfig",
             "gate": "GateConfig", "stats": "StatsConfig"}
    return {section: getattr(_package, name) for section, name in names.items()}


@dataclass(frozen=True)
class PipelineConfig:
    """Bundle of all stage configs; the unit recorded in report outputs.

    Field types live in their own modules (extract, sketchlib, stats); see
    `_stage_configs`. Each stage config checks itself on construction; this
    one checks the schema version and that each section is of its class.
    """

    schema_version: int = SCHEMA_VERSION
    extract: object = None
    quant: object = None
    sketch: object = None
    gate: object = None
    stats: object = None

    def __post_init__(self):
        _check_fields(self)
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"config-invalid: schema_version must be {SCHEMA_VERSION}")
        for name, cls in _stage_configs().items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, cls())
            elif not isinstance(getattr(self, name), cls):
                raise ConfigError(f"config-invalid: {name} must be {cls.__name__} or None")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Each section present is decoded by `_decode`, a missing one takes
        its defaults, and other keys are ignored."""
        if not isinstance(d, dict):
            raise ConfigError(f"config-invalid: expected an object, got {reprlib.repr(d)}")
        sections = {n: _decode(c, d[n]) for n, c in _stage_configs().items() if n in d}
        return cls(schema_version=d.get("schema_version", SCHEMA_VERSION), **sections)
