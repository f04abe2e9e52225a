"""Persistence and interchange.

Formats owned by this module:

- Images: 8-bit binary PGM (P5, grayscale) and PPM (P6, RGB); maxval <= 255.
- Embedding files: header ``driftsketch-emb v1 dim=<d> count=<n>``, then one
  ``<id> <v1> ... <vd>`` record per line.
- Sketch library (v3): binary, magic ``DSKL``, u16 version, u64 header
  length, a JSON header (configs, extractor fingerprint, ids, m, u, k, and
  ``dim``, the feature dimension or null where unknown), the u distinct
  minima rows as a u x k little-endian uint64 matrix in order of first
  occurrence, the m row indices (``ids[i]`` has row ``index[i]``) as
  little-endian uint32, then an 8-byte BLAKE2b checksum of every byte before
  it. v2 files have the same layout without ``dim``; v1 files (u64 payload
  length, one JSON payload holding every row, 8-byte BLAKE2b checksum of the
  payload) hold every row. Both still load, with the dimension unknown.
  Every version is rebuilt through ``SketchLibrary.from_minima``, so gate
  scores do not depend on which one a library came from.
- Model checkpoints and split plans: one-line JSON followed by a
  ``# blake2b=<hex>`` integrity line.
- Reports (drift and sensitivity): JSON-lines or CSV, one record per
  period/level, reals rendered with 17 significant digits (round-trip
  exact), a trailing checksum record; CSV extras ride in ``#`` comment lines
  so the files stay directly plottable. Gate verdict reports use the same
  JSON-lines encoding, one record per checked item.

Every loader verifies integrity and raises named StoreErrors; flipping any
payload bit is detected. All writes are atomic (temp file + rename).
"""

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .core import ConfigError, DataError, ImageGrid, StoreError, seeded_rng
from .extract import EMBEDDING_MAGIC
from .sketchlib import QuantConfig, SketchConfig, SketchLibrary
from .stats import DriftReport, PeriodStats
from .noiselab import SensitivityReport, SensitivityRow

LIBRARY_MAGIC = b"DSKL"
LIBRARY_VERSION = 3
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


def _next_header_token(data, pos):
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise StoreError("corrupt-header: truncated header")
    return data[start:pos], pos


def load_image(path):
    """Decode an 8-bit binary PGM (P5) or PPM (P6) file into an ImageGrid."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise StoreError(f"unsupported-format: expected P5 or P6 magic in {path}")
    channels = 1 if data[:2] == b"P5" else 3
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _next_header_token(data, pos)
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
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise StoreError("corrupt-header: missing separator before raster")
    pos += 1
    needed = width * height * channels
    raster = data[pos : pos + needed]
    if len(raster) < needed:
        raise StoreError(f"truncated-data: raster has {len(raster)} bytes, needs {needed}")
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / float(maxval)
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
    """Write FeatureVectors in the embedding file format.

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
    if len(set(ids)) != len(ids):
        raise DataError("duplicate-source-id in embedding batch")
    lines = [f"{EMBEDDING_MAGIC} v1 dim={dim} count={len(features)}"]
    for v in features:
        if not np.isfinite(v.values).all():
            raise DataError(f"non-finite-value({v.source_id})")
        lines.append(v.source_id + " " + " ".join(_format_float(x) for x in v.values))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# sketch library
# ---------------------------------------------------------------------------


def save_library(lib):
    """Serialize a SketchLibrary to v3 bytes (see the module docstring)."""
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
    data = b"".join((
        LIBRARY_MAGIC,
        LIBRARY_VERSION.to_bytes(2, "little"),
        len(header).to_bytes(8, "little"),
        header,
        lib.distinct_minima.astype("<u8").tobytes(),
        lib.row_index.astype("<u4").tobytes(),
    ))
    return data + hashlib.blake2b(data, digest_size=8).digest()


def _read_library_v1(data, length):
    """(header object, ids, minima rows) of a v1 file: one JSON payload."""
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
    return obj, [e["source_id"] for e in entries], [e["minima"] for e in entries]


def _header_size(obj, key):
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise StoreError(f"malformed-payload: {key} must be a non-negative integer, got {value!r}")
    return value


def _read_library_v2(data, length):
    """(header object, ids, minima rows) of a v2 or v3 file, its sizes checked."""
    body, trailer = data[:-8], data[-8:]
    if len(data) < 22 or hashlib.blake2b(body, digest_size=8).digest() != trailer:
        raise StoreError("checksum-mismatch")
    start = 14 + length
    obj = json.loads(body[14:start].decode("utf-8"))
    m, u, k = (_header_size(obj, key) for key in ("m", "u", "k"))
    ids = obj["ids"]
    if len(ids) != m or k != obj["sketch"]["k"] or len(body) != start + 8 * u * k + 4 * m:
        raise StoreError(
            f"malformed-payload: m={m}, u={u}, k={k} disagree with {len(ids)} ids, "
            f"sketch k {obj['sketch']['k']!r} or {len(body) - start} data bytes"
        )
    distinct = np.frombuffer(body, "<u8", u * k, start).reshape(u, k)
    row_index = np.frombuffer(body, "<u4", m, start + 8 * u * k)
    if m and row_index.max() >= u:
        raise StoreError(f"malformed-payload: row index {int(row_index.max())} >= u={u}")
    return obj, ids, distinct[row_index]


# v3 is the v2 layout with ``dim`` in the header
_LIBRARY_READERS = {1: _read_library_v1, 2: _read_library_v2, 3: _read_library_v2}


def load_library(data):
    """Deserialize a v3 (or v2, v1) library, verifying the checksum and sizes.

    Every version is rebuilt through ``SketchLibrary.from_minima``, so the
    library in memory is the same whichever file it came from, except that
    v1 and v2 files leave its dimension unknown.
    """
    if len(data) < 6 or data[:4] != LIBRARY_MAGIC:
        raise StoreError("bad-magic: not a sketch library file")
    version = int.from_bytes(data[4:6], "little")
    if version not in _LIBRARY_READERS:
        raise StoreError(f"version-unsupported: {version}")
    if len(data) < 14:
        raise StoreError("checksum-mismatch: truncated file")
    length = int.from_bytes(data[6:14], "little")
    try:
        obj, ids, rows = _LIBRARY_READERS[version](data, length)
        dim = None if version < 3 or obj["dim"] is None else _header_size(obj, "dim")
        if not isinstance(ids, list) or not all(isinstance(sid, str) for sid in ids):
            raise StoreError("malformed-payload: ids must be a list of strings")
        return SketchLibrary.from_minima(
            ids,
            rows,
            SketchConfig(**obj["sketch"]),
            QuantConfig(**obj["quant"]),
            obj["extract_fingerprint"],
            dim,
        )
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"checksum-mismatch: undecodable payload ({exc})")
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

def _report_parts(report):
    if isinstance(report, DriftReport):
        header = {
            "kind": "drift_report",
            "schema_version": 1,
            "baseline_id": report.baseline_id,
            "ks_alpha": report.ks_alpha,
        }
        return header, [asdict(p) for p in report.periods]
    if isinstance(report, SensitivityReport):
        header = {
            "kind": "sensitivity_report",
            "schema_version": 1,
            "noise_kind": report.noise_kind,
        }
        return header, [asdict(r) for r in report.rows]
    raise DataError(f"unsupported report type {type(report).__name__}")


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


def encode_jsonl_report(header, records, config=None):
    """JSON-lines report bytes: the header with ``config`` appended, one line
    per record, then a checksum record over everything before it.

    Shared by every JSON-lines report (drift, sensitivity, gate verdicts), so
    all of them read back through the same checked reader.
    """
    lines = [_jdump(dict(header, config=config))] + [_jdump(r) for r in records]
    body = ("\n".join(lines) + "\n").encode("utf-8")
    trailer = _jdump({"kind": "checksum", "blake2b": _digest(body)}).encode("utf-8")
    return body + trailer + b"\n"


def write_report(report, format, path, config=None):
    """Write a report as JSON-lines or CSV, one record per period/level.

    JSON-lines: a header object, the records, and a trailing checksum
    record. CSV: optional ``# config=...`` comment (only when a config is
    given), ``# <header>`` comment, the column header, the data rows, and a
    trailing ``# blake2b=...`` comment; comment lines keep the CSV loadable
    by readers that honor ``#`` comments.
    """
    header, rows = _report_parts(report)
    if format == "jsonl":
        atomic_write_bytes(path, encode_jsonl_report(header, rows, config))
    elif format == "csv":
        fields = list(rows[0].keys())
        lines = []
        if config is not None:
            lines.append("# config=" + _jdump(config))
        lines.append("# " + _jdump(header))
        lines.append(",".join(fields))
        for r in rows:
            lines.append(",".join(_csv_cell(r[f]) for f in fields))
        body = ("\n".join(lines) + "\n").encode("utf-8")
        trailer = f"{_CHECKSUM_PREFIX}{_digest(body)}\n".encode("ascii")
        atomic_write_bytes(path, body + trailer)
    else:
        raise ConfigError(f"config-invalid: unknown report format {format!r}")


def _report_json(text):
    # _format_float writes -0.0 as "-0", which JSON reads as the integer 0
    return json.loads(text, parse_int=lambda t: -0.0 if t == "-0" else int(t))


def _read_report_lines(path, expected_kind):
    """Split a report file into verified body lines plus the checksum trailer.

    The digest is checked over the exact body bytes as stored, so any
    single-bit corruption is caught before parsing.
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
        except json.JSONDecodeError:
            raise StoreError("checksum-mismatch: unparseable checksum record")
        if not isinstance(last, dict) or last.get("kind") != "checksum":
            raise StoreError("bad-magic: missing checksum record")
        if _digest(body) != last.get("blake2b"):
            raise StoreError("checksum-mismatch")
        try:
            header = _report_json(lines[0])
            records = [_report_json(ln) for ln in lines[1:]]
        except json.JSONDecodeError as exc:
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
    except json.JSONDecodeError as exc:
        raise StoreError(f"malformed-payload: {exc}")
    if header is None or header.get("kind") != expected_kind:
        raise StoreError(f"bad-magic: expected {expected_kind!r} header")
    if len(data_lines) < 1:
        raise StoreError("bad-magic: missing column header")
    columns = data_lines[0].split(",")
    rows = []
    for ln in data_lines[1:]:
        rows.append(dict(zip(columns, _split_csv_line(ln))))
    return header, rows, config


def _split_csv_line(line):
    # minimal CSV field splitter matching _csv_cell quoting
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


def _to_bool(value):
    if isinstance(value, bool):
        return value
    if value in ("true", "false"):
        return value == "true"
    raise StoreError(f"checksum-mismatch: bad boolean {value!r}")


def read_drift_report(path):
    """Re-parse a drift report written by write_report (either format).

    Returns (DriftReport, config-or-None).
    """
    header, rows, config = _read_report_lines(path, "drift_report")
    try:
        periods = tuple(
            PeriodStats(
                period_id=str(r["period_id"]),
                n_images=int(r["n_images"]),
                ks_d=float(r["ks_d"]),
                ks_p=float(r["ks_p"]),
                cosine_score=float(r["cosine_score"]),
                gate_flag_count=int(r["gate_flag_count"]),
                drift_flag=_to_bool(r["drift_flag"]),
            )
            for r in rows
        )
        report = DriftReport(
            baseline_id=str(header["baseline_id"]),
            ks_alpha=float(header["ks_alpha"]),
            periods=periods,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed-payload: {exc}")
    return report, config


def read_sensitivity_report(path):
    """Re-parse a sensitivity report written by write_report (either format)."""
    header, rows, config = _read_report_lines(path, "sensitivity_report")
    try:
        report = SensitivityReport(
            noise_kind=str(header["noise_kind"]),
            rows=tuple(
                SensitivityRow(
                    level=float(r["level"]),
                    cosine_score=float(r["cosine_score"]),
                    ks_d=float(r["ks_d"]),
                    ks_p=float(r["ks_p"]),
                    anomaly_rate=float(r["anomaly_rate"]),
                )
                for r in rows
            ),
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise StoreError(f"malformed-payload: {exc}")
    return report, config
