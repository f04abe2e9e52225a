"""Persistence and interchange.

Formats owned by this module:

- Images: 8-bit binary PGM (P5, grayscale) and PPM (P6, RGB); maxval <= 255.
- Embedding files: ``write_embeddings`` checks the vectors and writes them
  as v3, a text header line, then the ids and the float64 rows as byte
  planes in one zlib stream, then a checksum; ``extract`` encodes and reads
  the format (``extract.load_embeddings`` documents it, and still reads v2
  binary and v1 text).
- Sketch library (v4): binary, magic ``DSKL``, u16 version, u64 B, one
  level-1 zlib stream that inflates to exactly B bytes, then an 8-byte
  BLAKE2b checksum of every byte before it. The B bytes are the v3 body: a
  u64 header length, a JSON header (configs, extractor fingerprint, ids, m,
  u, k, and ``dim``, the feature dimension or null where unknown), the u
  distinct minima rows as a u x k little-endian uint64 matrix in order of
  first occurrence, and the m row indices (``ids[i]`` has row ``index[i]``)
  as little-endian uint32. The checksum is checked before anything is
  inflated, and a stream that is corrupt, cut short, longer or shorter than
  B or followed by other bytes is a named error. The ids and the repeated
  minima deflate well: the 2000-image benchmark baseline takes 8,984 bytes
  against 45,472 as v3. The bytes of a v4 file may differ between zlib
  builds; the library they decode to does not. v3 files store that body as
  it is, after the version; v2 files have the same layout without ``dim``;
  v1 files (u64 payload length, one JSON payload holding every row, 8-byte
  BLAKE2b checksum of the payload) hold every row. All three still load, v1
  and v2 with the dimension unknown. A v2-v4 file's distinct rows and row
  indices become the library's arrays as they are, checked for the
  canonical form ``save_library`` writes; a v1 file's rows are deduplicated
  as ``SketchLibrary.from_minima`` does. So gate scores do not depend on
  which version a library came from.
- Model checkpoints and split plans: one-line JSON followed by a
  ``# blake2b=<hex>`` integrity line.
- Reports (drift, sensitivity and gate): JSON-lines or CSV, one record per
  period, level or checked item, reals rendered with 17 significant digits
  (round-trip exact), a trailing checksum record; CSV extras ride in ``#``
  comment lines so the files stay directly plottable. One codec serves all
  three kinds: ``encode_report``/``write_report`` and ``read_report`` take
  the header fields and columns from the report and row dataclasses.

Every loader raises named StoreErrors on malformed input. Libraries, v2 and v3
embedding files, checkpoints, split plans and reports carry a checksum, so
flipping any bit of one is detected; images and v1 embedding text carry
none, and a changed pixel or digit loads as a different value. All writes
are atomic (temp file + rename).
"""

import dataclasses
import hashlib
import json
import os
import re
import tempfile
import typing
from dataclasses import asdict, dataclass

import numpy as np

from ._zstream import inflate, seal
from .core import ConfigError, DataError, ImageGrid, StoreError, seeded_rng
from .extract import _encode_embeddings
from .sketchlib import GateReport, GateResult, QuantConfig, SketchConfig, SketchLibrary
from .stats import DriftReport, PeriodStats
from .noiselab import SensitivityReport, SensitivityRow

LIBRARY_MAGIC = b"DSKL"
LIBRARY_VERSION = 4
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
    # 17 significant digits: round-trip exact for float64
    return f"{float(x):.17g}"


def _jdump(obj, sort_keys=False):
    """Compact JSON with floats at 17 significant digits."""
    if isinstance(obj, float):
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
    # one cast to float64, then the scale in place
    pixels = raster.astype(np.float64)
    pixels /= float(maxval)
    return ImageGrid(width=width, height=height, channels=channels, pixels=pixels)


def save_image(img, path):
    """Encode an ImageGrid as binary PGM (1 channel) or PPM (3 channels)."""
    from .core import validate_image

    validate_image(img)
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

    `dim` is only needed for an empty batch, where it cannot be inferred.
    """
    if features:
        dims = {v.values.shape[0] for v in features}
        if len(dims) != 1:
            raise DataError(f"dimension-mismatch: mixed dims {sorted(dims)}")
        dim = dims.pop()
    elif dim is None:
        raise DataError("empty-input: dim required for an empty embedding file")
    ids = [v.source_id for v in features]
    if not all(isinstance(sid, str) for sid in ids):
        raise DataError("malformed-id: source ids must be strings")
    if len(set(ids)) != len(ids):
        raise DataError("duplicate-source-id in embedding batch")
    rows = np.array([v.values for v in features], dtype=np.float64).reshape(len(ids), dim)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite-value({ids[int(np.argmin(finite))]})")
    atomic_write_bytes(path, _encode_embeddings(ids, rows))


# ---------------------------------------------------------------------------
# sketch library
# ---------------------------------------------------------------------------


def save_library(lib):
    """Serialize a SketchLibrary to v4 bytes (see the module docstring)."""
    u, k = lib.distinct_minima.shape
    header = {
        "sketch": {"k": lib.sketch_config.k, "hash_seed": lib.sketch_config.hash_seed},
        "quant": {
            "bin_width": lib.quant_config.bin_width,
            "origin": lib.quant_config.origin,
            "clamp_lo": lib.quant_config.clamp_lo,
            "clamp_hi": lib.quant_config.clamp_hi,
        },
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


def _read_library_v1(data):
    """(header object, ids, minima rows, None) of a v1 file: one JSON
    payload holding all m rows."""
    length = int.from_bytes(data[6:14], "little")
    payload = data[14 : 14 + length]
    trailer = data[14 + length : 14 + length + 8]
    if len(payload) != length or len(trailer) != 8:
        raise StoreError("checksum-mismatch: truncated payload")
    if hashlib.blake2b(payload, digest_size=8).digest() != trailer:
        raise StoreError("checksum-mismatch")
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"checksum-mismatch: undecodable payload ({exc})")
    entries = obj["entries"]
    return obj, [e["source_id"] for e in entries], [e["minima"] for e in entries], None


def _header_size(obj, key):
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise StoreError(f"malformed-payload: {key} must be a non-negative integer, got {value!r}")
    return value


def _library_body(body):
    """(header object, ids, distinct rows, row index) of a v2-v4 body (u64
    header length, JSON header, rows, indices), its sizes checked; the two
    arrays are copied out of the body as they are."""
    start = 8 + int.from_bytes(body[:8], "little")
    obj = json.loads(bytes(body[8:start]).decode("utf-8"))
    m, u, k = (_header_size(obj, key) for key in ("m", "u", "k"))
    ids = obj["ids"]
    if len(ids) != m or k != obj["sketch"]["k"] or len(body) != start + 8 * u * k + 4 * m:
        raise StoreError(
            f"malformed-payload: m={m}, u={u}, k={k} disagree with {len(ids)} ids, "
            f"sketch k {obj['sketch']['k']!r} or {len(body) - start} data bytes"
        )
    distinct = np.frombuffer(body, "<u8", u * k, start).reshape(u, k).astype(np.uint64)
    row_index = np.frombuffer(body, "<u4", m, start + 8 * u * k).astype(np.intp)
    return obj, ids, distinct, row_index


def _read_library_v2(data):
    """(header object, ids, distinct rows, row index) of a v2, v3 or v4
    file, its checksum verified before anything is parsed or inflated: v2
    and v3 store the body as it is, v4 stores u64 B, then one zlib stream
    that inflates to the B-byte body."""
    view = memoryview(data)
    if len(data) < 22 or hashlib.blake2b(view[:-8], digest_size=8).digest() != data[-8:]:
        raise StoreError("checksum-mismatch")
    if int.from_bytes(data[4:6], "little") < 4:
        return _library_body(view[6:-8])
    return _library_body(inflate(view[14:-8], int.from_bytes(data[6:14], "little")))


# v3 is the v2 layout with ``dim`` in the header; v4 is the v3 body in one zlib stream
_LIBRARY_READERS = {1: _read_library_v1, 2: _read_library_v2, 3: _read_library_v2,
                    4: _read_library_v2}


def load_library(data):
    """Deserialize a v4 library, verifying the checksum and sizes; v3, v2
    and v1 files still load.

    A v4 file's checksum is checked before its zlib stream is inflated, and
    a stream that does not inflate to exactly the declared length B is
    StoreError("malformed-payload"); the B bytes are read as a v3 body. The
    2000-image benchmark baseline takes 8,984 bytes as v4 against 45,472 as
    v3. v4 bytes may differ between zlib builds; the library they decode to
    does not. A v2, v3 or v4 file's arrays are taken as they are, in
    O(u*k + m), and must be canonical: rows or indices that ``save_library``
    cannot have written raise StoreError("malformed-payload"). A v1 file's
    m rows are deduplicated. So the library in memory is the same whichever
    file it came from, except that v1 and v2 files leave its dimension
    unknown.
    """
    if len(data) < 6 or data[:4] != LIBRARY_MAGIC:
        raise StoreError("bad-magic: not a sketch library file")
    version = int.from_bytes(data[4:6], "little")
    if version not in _LIBRARY_READERS:
        raise StoreError(f"version-unsupported: {version}")
    if len(data) < 14:
        raise StoreError("checksum-mismatch: truncated file")
    try:
        obj, ids, rows, row_index = _LIBRARY_READERS[version](data)
        dim = None if version < 3 or obj["dim"] is None else _header_size(obj, "dim")
        if not isinstance(ids, list) or not all(isinstance(sid, str) for sid in ids):
            raise StoreError("malformed-payload: ids must be a list of strings")
        configs = (
            SketchConfig(**obj["sketch"]),
            QuantConfig(**obj["quant"]),
            obj["extract_fingerprint"],
            dim,
        )
        if row_index is None:
            return SketchLibrary.from_minima(ids, rows, *configs)
        return SketchLibrary._from_distinct(ids, rows, row_index, *configs)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, ConfigError) as exc:
        # RecursionError: JSON nested too deeply for the parser
        raise StoreError(f"malformed-payload: {exc}")


def write_library(lib, path):
    atomic_write_bytes(path, save_library(lib))


def read_library(path):
    with open(path, "rb") as fh:
        return load_library(fh.read())


# ---------------------------------------------------------------------------
# checked JSON documents (model checkpoints, split plans)
# ---------------------------------------------------------------------------


def _write_checked_json(obj, path):
    line = _jdump(obj).encode("utf-8")
    checksum = f"{_CHECKSUM_PREFIX}{_digest(line)}\n".encode("ascii")
    atomic_write_bytes(path, line + b"\n" + checksum)


def _read_checked_json(path, kind):
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n")
    if len(lines) < 3:
        raise StoreError(f"bad-magic: not a {kind} file")
    payload, checksum_line = lines[0], lines[1].decode("ascii", errors="replace")
    if not checksum_line.startswith(_CHECKSUM_PREFIX):
        raise StoreError(f"bad-magic: missing integrity line in {kind} file")
    if _digest(payload) != checksum_line[len(_CHECKSUM_PREFIX) :]:
        raise StoreError("checksum-mismatch")
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise StoreError(f"checksum-mismatch: undecodable payload ({exc})")
    if not isinstance(obj, dict):
        raise StoreError(f"bad-magic: expected a {kind} object, got {type(obj).__name__}")
    if obj.get("kind") != kind:
        raise StoreError(f"bad-magic: expected kind {kind!r}, got {obj.get('kind')!r}")
    return obj


def save_model(model, path, train_config=None):
    """Persist a finite HeadModel checkpoint (versioned record of d, w, b)."""
    obj = {
        "kind": "head_model",
        "schema_version": 1,
        "dim": model.w.shape[0],
        "w": [float(x) for x in model.w],
        "b": model.b,
        "train": asdict(train_config) if train_config is not None else None,
    }
    _write_checked_json(obj, path)


def load_model(path):
    from .head import HeadModel

    obj = _read_checked_json(path, "head_model")
    try:
        w = np.array(obj["w"], dtype=np.float64)
        if w.shape[0] != obj["dim"]:
            raise StoreError(f"malformed-payload: dim {obj['dim']} but {w.shape[0]} weights")
        return HeadModel(w=w, b=float(obj["b"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed-payload: {exc}")


# ---------------------------------------------------------------------------
# dataset splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    n_groups: int
    seed: int
    assignment: dict

    def groups(self):
        """Ids per group, in assignment (shuffle) order."""
        out = [[] for _ in range(self.n_groups)]
        for sid, g in self.assignment.items():
            out[g].append(sid)
        return out


def split_dataset(ids, n_groups, seed):
    """Seeded shuffle then round-robin assignment into n_groups groups."""
    if n_groups < 2:
        raise ConfigError(f"config-invalid: n_groups must be >= 2, got {n_groups}")
    ids = list(ids)
    if len(set(ids)) != len(ids):
        dupes = sorted({x for x in ids if ids.count(x) > 1})
        raise DataError(f"duplicate-ids: {dupes[:5]}")
    if len(ids) < n_groups:
        raise DataError(f"too-few-ids: {len(ids)} ids for {n_groups} groups")
    order = seeded_rng(seed, "store.split").permutation(len(ids))
    assignment = {ids[int(idx)]: pos % n_groups for pos, idx in enumerate(order)}
    return SplitPlan(n_groups=n_groups, seed=seed, assignment=assignment)


def save_split(plan, path):
    obj = {
        "kind": "split_plan",
        "schema_version": 1,
        "n_groups": plan.n_groups,
        "seed": plan.seed,
        "assignment": plan.assignment,
    }
    _write_checked_json(obj, path)


def load_split(path):
    obj = _read_checked_json(path, "split_plan")
    try:
        return SplitPlan(
            n_groups=int(obj["n_groups"]),
            seed=int(obj["seed"]),
            assignment={k: int(v) for k, v in obj["assignment"].items()},
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StoreError(f"malformed-payload: {exc}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _to_bool(value):
    if isinstance(value, bool):
        return value
    if value in ("true", "false"):
        return value == "true"
    raise StoreError(f"checksum-mismatch: bad boolean {value!r}")


_CELL_PARSERS = {str: str, int: int, float: float, bool: _to_bool}


def _typed_fields(cls):
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _CELL_PARSERS.get(hints[f.name])) for f in dataclasses.fields(cls))


def _layout(report_cls, row_cls):
    *header, (rows, _) = _typed_fields(report_cls)
    return report_cls, tuple(header), rows, row_cls, _typed_fields(row_cls)


# kind -> (report class, its header fields, its rows field, row class, row fields).
# A report's rows are its last field; every other field goes in the header. Each
# field is a (name, parser) pair, the parser chosen by the field's annotation.
_REPORTS = {
    "drift_report": _layout(DriftReport, PeriodStats),
    "sensitivity_report": _layout(SensitivityReport, SensitivityRow),
    "gate_report": _layout(GateReport, GateResult),
}
_REPORT_SCHEMA_VERSION = 1


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    text = str(value)
    if "\n" in text:  # the reader splits lines before fields
        raise DataError(f"unsupported-value: CSV text cell with a newline: {text!r}")
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
    kind = next((k for k, layout in _REPORTS.items() if isinstance(report, layout[0])), None)
    if kind is None:
        raise DataError(f"unsupported report type {type(report).__name__}")
    _, header_fields, rows_field, _, columns = _REPORTS[kind]
    header = {"kind": kind, "schema_version": _REPORT_SCHEMA_VERSION}
    header.update((name, getattr(report, name)) for name, _ in header_fields)
    names = [name for name, _ in columns]
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


def _report_json(text):
    # _format_float writes -0.0 as "-0", which JSON reads as the integer 0
    return json.loads(text, parse_int=lambda t: -0.0 if t == "-0" else int(t))


def _read_report_lines(path, expected_kind):
    """(header, records, config) of a report file, its checksum verified.

    The digest is checked over the exact body bytes as stored, so any
    single-bit corruption is caught before parsing. Records are dicts of
    JSON values (JSON-lines) or of cell text (CSV).
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
        except (json.JSONDecodeError, RecursionError):
            raise StoreError("checksum-mismatch: unparseable checksum record")
        if not isinstance(last, dict) or last.get("kind") != "checksum":
            raise StoreError("bad-magic: missing checksum record")
        if _digest(body) != last.get("blake2b"):
            raise StoreError("checksum-mismatch")
        try:
            header = _report_json(lines[0])
            records = [_report_json(ln) for ln in lines[1:]]
        except (json.JSONDecodeError, RecursionError) as exc:
            raise StoreError(f"malformed-payload: {exc}")
        if header.get("kind") != expected_kind:
            raise StoreError(
                f"bad-magic: expected {expected_kind!r}, got {header.get('kind')!r}"
            )
        return header, records, header.get("config")
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
                config = _report_json(ln[len("# config=") :])
            elif ln.startswith("# "):
                header = _report_json(ln[2:])
            else:
                data_lines.append(ln)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StoreError(f"malformed-payload: {exc}")
    if not isinstance(header, dict) or header.get("kind") != expected_kind:
        raise StoreError(f"bad-magic: expected {expected_kind!r} header")
    if len(data_lines) < 1:
        raise StoreError("bad-magic: missing column header")
    columns = data_lines[0].split(",")
    return header, [dict(zip(columns, _split_csv_line(ln))) for ln in data_lines[1:]], config


def _split_csv_line(line):
    # minimal CSV field splitter matching _csv_cell quoting; the csv module
    # rejects the bare '\r' that _csv_cell leaves unquoted
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
    Each cell is parsed by its field's annotation. Returns (report,
    config-or-None).
    """
    if kind not in _REPORTS:
        raise ConfigError(f"config-invalid: unknown report kind {kind!r}")
    report_cls, header_fields, rows_field, row_cls, columns = _REPORTS[kind]
    header, records, config = _read_report_lines(path, kind)
    try:
        rows = tuple(row_cls(**{n: parse(r[n]) for n, parse in columns}) for r in records)
        fields = {n: parse(header[n]) for n, parse in header_fields}
        return report_cls(**fields, **{rows_field: rows}), config
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise StoreError(f"malformed-payload: {exc}")


def read_drift_report(path):
    """(DriftReport, config-or-None) of a drift report file."""
    return read_report(path, "drift_report")


def read_sensitivity_report(path):
    """(SensitivityReport, config-or-None) of a sensitivity report file."""
    return read_report(path, "sensitivity_report")
