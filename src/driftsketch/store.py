"""Persistence and interchange.

Formats owned by this module:

- Images: 8-bit binary PGM (P5, grayscale) and PPM (P6, RGB); maxval <= 255.
- Embedding files and sketch libraries are sealed files (``_zstream``
  describes the container: a head, a body stored as it is or as one zlib
  stream, and a BLAKE2b checksum trailer).
- Embedding files: ``write_embeddings`` checks the vectors and writes them
  as v3, a text header line, then the ids and the float64 rows as byte
  planes in one zlib stream; ``extract`` encodes and reads the format
  (``extract.load_embeddings`` documents it, and still reads v2 binary and
  v1 text).
- Sketch library (v4): magic ``DSKL``, u16 version, u64 B, then a zlib
  stream that inflates to the B-byte v3 body: a u64 header length, a JSON
  header (configs, extractor fingerprint, ids, m, u, k, and ``dim``, the
  feature dimension or null where unknown), the u distinct minima rows as a
  u x k little-endian uint64 matrix in order of first occurrence, and the m
  row indices (``ids[i]`` has row ``index[i]``) as little-endian uint32.
  The ids and the repeated minima deflate well: the 2000-image benchmark
  baseline takes 8,984 bytes against 45,472 as v3. The bytes of a v4 file
  may differ between zlib builds; the library they decode to does not. v3
  files store that body as it is, after the version; v2 files have the
  same layout without ``dim``; v1 files (u64 payload length, one JSON
  payload holding every row, the payload alone sealed) hold every row. All
  three still load, v1 and v2 with the dimension unknown. A v2-v4 file's
  distinct rows and row indices become the library's arrays as they are,
  checked for the canonical form ``save_library`` writes; a v1 file's rows
  are deduplicated as ``SketchLibrary.from_minima`` does. So gate scores do
  not depend on which version a library came from.
- Model checkpoints and split plans: one-line JSON followed by a
  ``# blake2b=<hex>`` integrity line.
- Every JSON document read back (checkpoint, split plan, library header,
  report header and rows) is decoded by ``core._decode`` into the dataclass
  it holds, typed by that class's annotations, after ``_check_schema``.
- Reports (drift, sensitivity and gate): JSON-lines or CSV, one record per
  period, level or checked item, a trailing checksum record; CSV extras ride
  in ``#`` comment lines so the files stay directly plottable. One codec
  serves all three kinds: ``encode_report``/``write_report`` and
  ``read_report`` take the header fields and columns from the report and
  row dataclasses. The report and model codecs read their classes from the
  package when called, so a process that reads a library loads none of them.
- Every real written as text (JSON, CSV cells) is ``_format_float``'s: the
  fewest digits that read back as the same float64, or an integer for a
  whole float below 1e17. Files written with 17 significant digits, as
  before, decode to the same values.

Every loader raises named StoreErrors on malformed input. Libraries, v2 and v3
embedding files, checkpoints, split plans and reports carry a checksum, so
flipping any bit of one is detected; images and v1 embedding text carry
none, and a changed pixel or digit loads as a different value. All writes
are atomic (temp file + rename).
"""

import hashlib
import json
import math
import os
import re
import tempfile
from dataclasses import asdict, dataclass
from typing import Annotated

import numpy as np

from ._zstream import Body, checked, seal
from .core import ConfigError, DataError, DriftSketchError, ImageGrid, StoreError, seeded_rng
from .core import _at_least, _batch, _check_fields, _check_seed, _decode, _decode_value
from .core import _distinct_ids, _field_plan, _field_types, _is_integer, _package, _parse_text
from .extract import _encode_embeddings
from .sketchlib import QuantConfig, SketchConfig, SketchLibrary

LIBRARY_MAGIC = b"DSKL"
LIBRARY_VERSION = 4
_SCHEMA_VERSION = 1  # of every JSON document: checkpoints, split plans, reports, v1 libraries
_CHECKSUM_PREFIX = "# blake2b="


def _digest(payload):
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def atomic_write_bytes(path, data):
    """Write bytes via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-driftsketch-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_float(x):
    """The fewest digits that read back as the same float64 (``repr``); a
    whole float below 1e17 is written as an integer, as in ``-0`` or ``3``."""
    x = float(x)
    if x.is_integer() and abs(x) < 1e17:
        return f"{x:.17g}"
    return repr(x)


def _jdump(obj, sort_keys=False):
    """Compact JSON with reals as ``_format_float`` writes them; NaN and the
    infinities, which JSON cannot carry, raise DataError."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DataError(f"non-finite-value: JSON cannot carry {obj!r}")
        return _format_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_jdump(v, sort_keys) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items()) if sort_keys else obj.items()
        return "{" + ",".join(f"{json.dumps(str(k))}:{_jdump(v, sort_keys)}" for k, v in items) + "}"
    raise TypeError(f"unserializable type {type(obj).__name__}")


def _json_int(text):
    # _format_float writes -0.0 as "-0", which JSON reads as the integer 0
    return -0.0 if text == "-0" else int(text)


def _json_float(text):
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"cannot convert float infinity: {text} is past the float range")
    return value


def _json_object(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):  # a key repeats: name the first repeat
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _loads(text):
    """Parse JSON as the writers here write it: ``-0`` is -0.0, and a number
    past the float range or a key repeated in one object raises ValueError."""
    return json.loads(
        text, parse_int=_json_int, parse_float=_json_float, object_pairs_hook=_json_object
    )


def _malformed(exc):
    """StoreError("malformed-payload") naming what `exc` names, less the
    ``config-invalid`` code of a ConfigError."""
    return StoreError("malformed-payload: " + str(exc).removeprefix("config-invalid: "))


def _decode_file(cls, obj, **given):
    """``core._decode`` for what a file holds: a fault is a StoreError."""
    try:
        return _decode(cls, obj, **given)
    except (ConfigError, ValueError) as exc:
        raise _malformed(exc) from None


def _check_schema(obj):
    """Remove the ``schema_version`` of a JSON document; it must be 1."""
    if not isinstance(obj, dict):
        raise StoreError(f"malformed-payload: expected an object, got {type(obj).__name__}")
    version = obj.pop("schema_version", None)
    if not _is_integer(version) or version != _SCHEMA_VERSION:
        raise StoreError(f"version-unsupported: schema_version {version!r}")


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------


# width, height and maxval: each a run of bytes other than whitespace (bytes \s,
# the six bytes.isspace() bytes) and '#', after any whitespace and '#' comments
# (ended by '\n', '\r' or the end of the file); empty only where the file ends
_HEADER_SEP = rb"(?:\s|#[^\n\r]*)*"
_HEADER_FIELDS = re.compile(3 * (_HEADER_SEP + rb"([^\s#]*)"))


def load_image(path):
    """Decode an 8-bit binary PGM (P5) or PPM (P6) file into an ImageGrid.

    A sample above the header's maxval raises StoreError("sample-above-maxval").
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise StoreError(f"unsupported-format: expected P5 or P6 magic in {path}")
    channels = 1 if data[:2] == b"P5" else 3
    header = _HEADER_FIELDS.match(data, 2)
    fields = []
    for token in header.groups():
        if not token:
            raise StoreError("corrupt-header: truncated header")
        try:
            if not token.isdigit():  # int() also takes a sign and '_' between digits
                raise ValueError
            fields.append(int(token))
        except ValueError:
            raise StoreError(f"corrupt-header: non-integer header token {token!r}")
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise StoreError(f"corrupt-header: dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise StoreError(f"unsupported-format: maxval {maxval} (8-bit only)")
    # exactly one whitespace byte separates the header from the raster
    pos = header.end()
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise StoreError("corrupt-header: missing separator before raster")
    pos += 1
    needed = width * height * channels
    if len(data) - pos < needed:
        raise StoreError(f"truncated-data: raster has {len(data) - pos} bytes, needs {needed}")
    raster = np.frombuffer(data, dtype=np.uint8, count=needed, offset=pos)
    if maxval < 255 and raster.max() > maxval:
        raise StoreError(
            f"sample-above-maxval: {path}: largest sample {int(raster.max())}, maxval {maxval}"
        )
    # one cast to float64, then the scale in place; handed over read-only,
    # so the grid holds it without a copy
    pixels = raster.astype(np.float64)
    pixels /= float(maxval)
    pixels.flags.writeable = False
    return ImageGrid(width=width, height=height, channels=channels, pixels=pixels)


def save_image(img, path):
    """Encode an ImageGrid as binary PGM (1 channel) or PPM (3 channels)."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + f"\n{img.width} {img.height}\n255\n".encode("ascii")
    raster = np.rint(img.pixels * 255.0).astype(np.uint8).tobytes()
    atomic_write_bytes(path, header + raster)


def list_images_dir(directory):
    """Sorted filenames of the .pgm/.ppm files in a directory; empty-input if none."""
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith((".pgm", ".ppm")))
    if not names:
        raise StoreError(f"empty-input: no .pgm/.ppm files in {directory}")
    return names


def load_images_dir(directory):
    """Load every .pgm/.ppm file in a directory, sorted by filename.

    Returns (images, source_ids) with ids the bare filenames.
    """
    names = list_images_dir(directory)
    return [load_image(os.path.join(directory, n)) for n in names], names


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def write_embeddings(features, path, dim=None):
    """Write FeatureVectors as a v3 embedding file (see ``extract.load_embeddings``).

    The vectors are read by ``core._batch``, of dimension `dim` where it is
    given, a count typed as an ``int`` field is. `dim` is only needed for an
    empty batch, where it cannot be inferred, and writes an empty file.
    """
    features = list(features)
    dim = None if dim is None else _decode_value(int, dim, "dim")
    if features or dim is None:
        features = _batch(features, "features", dim)
        dim = features[0].dim
    if dim < 1:
        raise DataError(f"dimension-mismatch: an embedding file needs dim >= 1, got {dim}")
    ids = _distinct_ids(v.source_id for v in features)
    rows = np.array([v.values for v in features], dtype=np.float64).reshape(len(ids), dim)
    atomic_write_bytes(path, _encode_embeddings(ids, rows))


# ---------------------------------------------------------------------------
# sketch library
# ---------------------------------------------------------------------------


def save_library(lib):
    """Serialize a SketchLibrary to v4 bytes (see the module docstring)."""
    u, k = lib.distinct_minima.shape
    header = {
        "sketch": asdict(lib.sketch_config),
        "quant": asdict(lib.quant_config),
        "extract_fingerprint": lib.extract_fingerprint,
        "dim": lib.dim,
        "ids": list(lib.ids),
        "m": len(lib),
        "u": u,
        "k": k,
    }
    header = _jdump(header, sort_keys=True).encode("utf-8")
    body = [
        len(header).to_bytes(8, "little"),
        header,
        lib.distinct_minima.astype("<u8").tobytes(),
        lib.row_index.astype("<u4").tobytes(),
    ]
    size = sum(len(part) for part in body)
    return seal(LIBRARY_MAGIC + LIBRARY_VERSION.to_bytes(2, "little") + size.to_bytes(8, "little"),
                body)


@dataclass(frozen=True)
class _LibraryV1:
    """The JSON payload of a v1 library, less its schema_version."""

    sketch: SketchConfig
    quant: QuantConfig
    extract_fingerprint: str
    entries: list


@dataclass(frozen=True)
class _LibraryHeader:
    """The JSON header of a v2-v4 library body (a v2 header has no ``dim``)."""

    m: int
    u: int
    k: int
    ids: list
    sketch: SketchConfig
    quant: QuantConfig
    extract_fingerprint: str
    dim: int | None


def _read_library_v1(data):
    """(``_LibraryV1``, ids, minima rows) of a v1 file: a u64 length, then
    one JSON payload holding all m rows, sealed alone."""
    length = int.from_bytes(data[6:14], "little")
    if len(data) < 22 + length:
        raise StoreError("checksum-mismatch: truncated payload")
    payload = checked(memoryview(data)[14:])
    if len(payload) != length:
        raise StoreError(f"malformed-payload: {len(payload) - length} bytes after the payload")
    obj = _loads(bytes(payload).decode("utf-8"))  # load_library names a fault
    _check_schema(obj)
    head = _decode(_LibraryV1, obj)
    return head, [e["source_id"] for e in head.entries], [e["minima"] for e in head.entries]


def _library_body(body, version):
    """(``_LibraryHeader``, distinct rows, row index) of a v2-v4 ``Body``
    (u64 header length, JSON header, rows, indices), its sizes checked; the
    rows and indices are read straight into new arrays."""
    start = 8 + int.from_bytes(body.read(8), "little")
    header = body.read(start - 8)
    try:
        obj = _loads(header.decode("utf-8"))
        if version == 2 and isinstance(obj, dict):
            obj["dim"] = None  # a v2 file's dimension is unknown, whatever its header says
        head = _decode(_LibraryHeader, obj)
        m, u, k = head.m, head.u, head.k
        size = start + 8 * u * k + 4 * m
        if u < 0 or len(head.ids) != m or k != head.sketch.k or body.size != size:
            raise StoreError(
                f"malformed-payload: m={m}, u={u}, k={k} disagree with {len(head.ids)} ids, "
                f"sketch k {head.sketch.k!r} or {body.size - start} data bytes"
            )
    except (StoreError, ConfigError, ValueError, RecursionError):
        body.close()  # a fault in a zlib stream names itself before the header's
        raise
    distinct = np.empty((u, k), "<u8")
    row_index = np.empty(m, "<u4")
    body.readinto(distinct.view(np.uint8))
    body.readinto(row_index.view(np.uint8).reshape(m, 4))
    body.close()
    distinct.flags.writeable = False  # the library holds it without a copy
    return head, distinct, row_index


def load_library(data):
    """Deserialize a v4 library, verifying the checksum and sizes; v3, v2
    and v1 files still load.

    Every version is a sealed file (see ``_zstream``) whose checksum is
    checked before anything is parsed or inflated. A v4 body is one zlib
    stream, a v2 or v3 body is stored, and all three are read as a v3 body
    (v2 without ``dim``). The JSON header is decoded by ``core._decode``
    into ``_LibraryHeader`` (``_LibraryV1`` for a v1 payload), so a key
    missing or added, or a value of the wrong type, raises
    StoreError("malformed-payload"). A v2, v3 or v4 file's arrays are taken
    as they are, in O(u*k + m), and must be canonical: rows or indices that
    ``save_library`` cannot have written raise
    StoreError("malformed-payload"). A v1 file's m rows are deduplicated.
    So the library in memory is the same whichever file it came from,
    except that v1 and v2 files leave its dimension unknown.
    """
    if len(data) < 6 or data[:4] != LIBRARY_MAGIC:
        raise StoreError("bad-magic: not a sketch library file")
    version = int.from_bytes(data[4:6], "little")
    if not 1 <= version <= LIBRARY_VERSION:
        raise StoreError(f"version-unsupported: {version}")
    if len(data) < 14:
        raise StoreError("checksum-mismatch: truncated file")
    try:
        if version == 1:
            head, ids, rows = _read_library_v1(data)
            dim = None
        else:
            if len(data) < 22:  # magic, version, a u64 and the checksum
                raise StoreError("checksum-mismatch")
            sealed = checked(data)
            if version == 4:
                body = Body(sealed[14:], int.from_bytes(sealed[6:14], "little"))
            else:
                body = Body(sealed[6:])
            head, rows, row_index = _library_body(body, version)
            ids, dim = head.ids, head.dim
        configs = (head.sketch, head.quant, head.extract_fingerprint, dim)
        if version == 1:
            return SketchLibrary.from_minima(ids, rows, *configs)
        return SketchLibrary(ids, rows, row_index, *configs)
    except StoreError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, DriftSketchError) as e:
        # RecursionError: JSON nested too deeply for the parser; a DataError
        # or ConfigError: what the library checks of itself as it is built
        raise _malformed(e)


def write_library(lib, path):
    atomic_write_bytes(path, save_library(lib))


def read_library(path):
    with open(path, "rb") as fh:
        return load_library(fh.read())


# ---------------------------------------------------------------------------
# checked JSON documents (model checkpoints, split plans)
# ---------------------------------------------------------------------------


def _write_checked_json(kind, fields, path):
    """Write the fields of a document of `kind`, as ``_read_checked_json`` reads it."""
    line = _jdump({"kind": kind, "schema_version": _SCHEMA_VERSION, **fields}).encode("utf-8")
    checksum = f"{_CHECKSUM_PREFIX}{_digest(line)}\n".encode("ascii")
    atomic_write_bytes(path, line + b"\n" + checksum)


def _read_checked_json(path, kind):
    """The JSON object of a checked document of `kind`, its checksum, kind
    and schema_version checked, less those two keys."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n", 2)
    if len(lines) < 3:
        raise StoreError(f"bad-magic: not a {kind} file")
    if lines[2]:
        raise StoreError(f"checksum-mismatch: {len(lines[2])} bytes after the integrity line")
    payload, checksum_line = lines[0], lines[1].decode("ascii", errors="replace")
    if not checksum_line.startswith(_CHECKSUM_PREFIX):
        raise StoreError(f"bad-magic: missing integrity line in {kind} file")
    if _digest(payload) != checksum_line[len(_CHECKSUM_PREFIX) :]:
        raise StoreError("checksum-mismatch")
    try:
        obj = _loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise _malformed(exc) from None
    if not isinstance(obj, dict):
        raise StoreError(f"bad-magic: expected a {kind} object, got {type(obj).__name__}")
    found = obj.pop("kind", None)
    if found != kind:
        raise StoreError(f"bad-magic: expected kind {kind!r}, got {found!r}")
    _check_schema(obj)
    return obj


def save_model(model, path, train_config=None):
    """Persist a finite HeadModel checkpoint (versioned record of d, w, b)."""
    obj = {
        "dim": model.w.shape[0],
        "w": [float(x) for x in model.w],
        "b": model.b,
        "train": asdict(train_config) if train_config is not None else None,
    }
    _write_checked_json("head_model", obj, path)


def load_model(path):
    """The HeadModel of a checkpoint that ``save_model`` wrote, decoded by
    ``core._decode``; a fault is a named StoreError."""
    record = _decode_file(_package.head._Checkpoint, _read_checked_json(path, "head_model"))
    return _package.HeadModel(w=record.w, b=record.b)


# ---------------------------------------------------------------------------
# dataset splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    """Ids assigned to ``n_groups`` groups under a seed. It checks itself on
    construction: at least 2 groups, a seed in [0, 2^64), the ids read by
    ``core._distinct_ids`` and every group an integer in [0, n_groups)."""

    n_groups: Annotated[int, _at_least(2)]
    seed: Annotated[int, _check_seed]
    assignment: dict

    def __post_init__(self):
        _check_fields(self)
        _distinct_ids(self.assignment)
        for sid, group in self.assignment.items():
            if not _is_integer(group):
                raise ConfigError(f"config-invalid: id {sid!r} in group {group!r}, not an integer")
            if not 0 <= group < self.n_groups:
                raise ConfigError(
                    f"config-invalid: id {sid!r} in group {group}, outside [0, {self.n_groups})"
                )

    def groups(self):
        """Ids per group, in assignment (shuffle) order."""
        out = [[] for _ in range(self.n_groups)]
        for sid, g in self.assignment.items():
            out[g].append(sid)
        return out


def split_dataset(ids, n_groups, seed):
    """Seeded shuffle then round-robin assignment into n_groups groups."""
    SplitPlan(n_groups, seed, {})  # checks n_groups and the seed before any work
    ids = _distinct_ids(ids)
    if len(ids) < n_groups:
        raise DataError(f"too-few-ids: {len(ids)} ids for {n_groups} groups")
    order = seeded_rng(seed, "store.split").permutation(len(ids))
    assignment = {ids[int(idx)]: pos % n_groups for pos, idx in enumerate(order)}
    return SplitPlan(n_groups=n_groups, seed=seed, assignment=assignment)


def save_split(plan, path):
    obj = {"n_groups": plan.n_groups, "seed": plan.seed, "assignment": plan.assignment}
    _write_checked_json("split_plan", obj, path)


def load_split(path):
    """The SplitPlan of a file that ``save_split`` wrote, decoded by
    ``core._decode``; a fault is a named StoreError."""
    return _decode_file(SplitPlan, _read_checked_json(path, "split_plan"))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

# kind -> the package's name for its report class, read on first use
_REPORTS = {"drift_report": "DriftReport", "sensitivity_report": "SensitivityReport",
            "gate_report": "GateReport"}


def _layout(kind):
    """(report class, header fields, rows field, row class) of a report kind.
    Its rows are its last field, annotated ``core._rows(Row)``, and every
    other field goes in the header; the row class's fields are the columns."""
    report_cls = getattr(_package, _REPORTS[kind])
    *header, (rows_field, hint) = _field_types(report_cls).items()
    return report_cls, [name for name, _ in header], rows_field, _field_plan(hint)[4].row_class


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    text = str(value)
    if "\n" in text:  # the reader splits lines before fields
        raise DataError(f"unsupported-value: CSV text cell with a newline: {text!r}")
    if any("\ud800" <= c <= "\udfff" for c in text):  # UTF-8 has no bytes for one
        raise DataError(f"unsupported-value: CSV text cell with a surrogate: {text!r}")
    if any(c in text for c in ',"') or text.startswith("#"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def encode_report(report, format, config=None):
    """A drift, sensitivity or gate report as JSON-lines or CSV bytes.

    The header holds ``kind``, ``schema_version`` and the report's fields
    other than its rows; the columns are the row class's fields. JSON-lines:
    the header with ``config`` appended, one record per row, a checksum
    record. CSV: ``# config=...`` (when given) and ``# <header>`` comment
    lines, the column header, one line per row, a ``# blake2b=...`` comment.
    """
    bases = {cls.__name__ for cls in type(report).__mro__}  # so no other report's module loads
    kind = next((k for k, name in _REPORTS.items()
                 if name in bases and isinstance(report, getattr(_package, name))), None)
    if kind is None:
        raise DataError(f"unsupported report type {type(report).__name__}")
    _, header_fields, rows_field, row_cls = _layout(kind)
    header = {"kind": kind, "schema_version": _SCHEMA_VERSION}
    header.update((name, getattr(report, name)) for name in header_fields)
    names = list(_field_types(row_cls))
    records = [{n: getattr(r, n) for n in names} for r in getattr(report, rows_field)]
    if format == "jsonl":
        lines = [_jdump(dict(header, config=config))] + [_jdump(r) for r in records]
        body = ("\n".join(lines) + "\n").encode("utf-8")
        trailer = _jdump({"kind": "checksum", "blake2b": _digest(body)}).encode("utf-8")
        return body + trailer + b"\n"
    if format == "csv":
        lines = [] if config is None else ["# config=" + _jdump(config)]
        lines += ["# " + _jdump(header), ",".join(names)]
        lines += [",".join(_csv_cell(v) for v in r.values()) for r in records]
        body = ("\n".join(lines) + "\n").encode("utf-8")
        return body + f"{_CHECKSUM_PREFIX}{_digest(body)}\n".encode("ascii")
    raise ConfigError(f"config-invalid: unknown report format {format!r}")


def write_report(report, format, path, config=None):
    """Write a report atomically as JSON-lines or CSV (see ``encode_report``)."""
    atomic_write_bytes(path, encode_report(report, format, config))


def _read_report_lines(path, expected_kind):
    """(header, records, config) of a report file, its checksum verified.

    The digest is checked over the exact body bytes as stored, so any
    single-bit corruption is caught before parsing. A JSON-lines header
    loses its ``config``. Records are dicts of JSON values (JSON-lines) or
    of cells parsed by their column's annotation (CSV).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise StoreError(f"bad-magic: empty {expected_kind} file")
    if not raw.endswith(b"\n"):
        raise StoreError("checksum-mismatch: missing trailing newline")
    cut = raw.rfind(b"\n", 0, len(raw) - 1)
    if cut < 0:
        raise StoreError(f"bad-magic: not a {expected_kind} file")
    body = raw[: cut + 1]
    try:
        trailer = raw[cut + 1 : -1].decode("utf-8")
        lines = body.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise StoreError(f"checksum-mismatch: undecodable file ({exc})")
    if not lines:
        raise StoreError(f"bad-magic: not a {expected_kind} file")
    if lines[0].startswith("{"):
        # jsonl
        try:
            last = json.loads(trailer)
        except (ValueError, RecursionError):
            raise StoreError("checksum-mismatch: unparseable checksum record")
        if not isinstance(last, dict) or last.get("kind") != "checksum":
            raise StoreError("bad-magic: missing checksum record")
        if _digest(body) != last.get("blake2b"):
            raise StoreError("checksum-mismatch")
        try:
            header = _loads(lines[0])
            records = [_loads(ln) for ln in lines[1:]]
        except (ValueError, RecursionError) as exc:
            raise StoreError(f"malformed-payload: {exc}")
        if header.get("kind") != expected_kind:
            raise StoreError(
                f"bad-magic: expected {expected_kind!r}, got {header.get('kind')!r}"
            )
        if "config" not in header:
            raise StoreError("malformed-payload: 'config'")
        return header, records, header.pop("config")
    # csv
    if not trailer.startswith(_CHECKSUM_PREFIX):
        raise StoreError("bad-magic: missing checksum line")
    if _digest(body) != trailer[len(_CHECKSUM_PREFIX) :]:
        raise StoreError("checksum-mismatch")
    config = None
    header = None
    data_lines = []
    try:
        for ln in lines:
            if ln.startswith("# config="):
                config = _loads(ln[len("# config=") :])
            elif ln.startswith("# "):
                header = _loads(ln[2:])
            else:
                data_lines.append(ln)
    except (ValueError, RecursionError) as exc:
        raise StoreError(f"malformed-payload: {exc}")
    if not isinstance(header, dict) or header.get("kind") != expected_kind:
        raise StoreError(f"bad-magic: expected {expected_kind!r} header")
    if len(data_lines) < 1:
        raise StoreError("bad-magic: missing column header")
    columns = data_lines[0].split(",")
    types = _field_types(_layout(expected_kind)[3])
    records = []
    for ln in data_lines[1:]:
        cells = _split_csv_line(ln)
        if len(cells) != len(columns):
            raise StoreError(f"malformed-payload: {len(cells)} cells under {len(columns)} columns")
        records.append({c: _read_cell(types[c], t, c) if c in types else t
                        for c, t in zip(columns, cells)})
    return header, records, config


def _read_cell(hint, text, name):
    """A CSV cell parsed by its column's annotation. It must be the text
    ``_csv_cell`` writes for that value, or for a real the 17 significant
    digits that earlier releases wrote, so a file loads to a report that
    saves back to its own bytes."""
    value = _parse_text(hint, text, name)
    hint = _field_plan(hint)[0]
    if hint is str or _csv_cell(value) == text or hint is float and f"{value:.17g}" == text:
        return value
    raise StoreError(
        f"malformed-payload: {name} = {text!r}, which the writer writes {_csv_cell(value)!r}"
    )


def _split_csv_line(line):
    # minimal CSV field splitter matching _csv_cell quoting; the csv module
    # rejects the bare '\r' that _csv_cell leaves unquoted
    if '"' not in line:
        return line.split(",")
    out = []
    field = []
    quoted = False
    i = 0
    while i < len(line):
        c = line[i]
        if quoted:
            if c == '"':
                if i + 1 < len(line) and line[i + 1] == '"':
                    field.append('"')
                    i += 1
                else:
                    quoted = False
            else:
                field.append(c)
        elif c == '"':
            quoted = True
        elif c == ",":
            out.append("".join(field))
            field = []
        else:
            field.append(c)
        i += 1
    out.append("".join(field))
    return out


def read_report(path, kind):
    """Re-parse a report of `kind` written by write_report (either format).

    `kind` is ``drift_report``, ``sensitivity_report`` or ``gate_report``.
    The header and each row are decoded by ``core._decode``, CSV cells first
    parsed by their field's annotation, so a key missing or added, or a
    value of the wrong type, raises StoreError("malformed-payload").
    Returns (report, config-or-None).
    """
    if kind not in _REPORTS:
        raise ConfigError(f"config-invalid: unknown report kind {kind!r}")
    report_cls, _, rows_field, row_cls = _layout(kind)
    try:
        header, records, config = _read_report_lines(path, kind)
    except ConfigError as exc:  # a CSV cell that does not parse
        raise _malformed(exc) from None
    del header["kind"]
    _check_schema(header)
    rows = tuple(_decode_file(row_cls, r) for r in records)
    return _decode_file(report_cls, header, **{rows_field: rows}), config


def read_drift_report(path):
    """(DriftReport, config-or-None) of a drift report file."""
    return read_report(path, "drift_report")


def read_sensitivity_report(path):
    """(SensitivityReport, config-or-None) of a sensitivity report file."""
    return read_report(path, "sensitivity_report")
