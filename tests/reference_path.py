"""Reference copy of the per-image path as it stood before its in-place rewrite.

`load_image`, `validate_image` and `extract_builtin` below decode, check and
extract with a separate NumPy pass and a fresh array for every step: a
byte-at-a-time header tokenizer, a divide after the cast, one range mask,
stacked and concatenated statistics, and a clamped histogram. `load_image`
also rejects a sample above maxval, with a Python `max` over the raster
bytes. The package's own functions must agree with them bit for bit, and
raise the same errors with the same text.

`sensitivity_sweep` below is the level-major sweep: it corrupts the whole
test set at one level, extracts it, then goes on to the next level, so it
holds the test set and two noised generations at once. The package's
image-major sweep must give the same report.

`load_embeddings` below is the text-only embedding reader: it reads v1 files
and nothing else. On every v1 file the package's reader must return the same
vectors or raise the same error with the same text.

`encode_embeddings_v2` below is the v2 embedding writer, which the package
replaced with v3: a text header, the ids as JSON padded to 8 bytes, row-major
little-endian float64 rows and a BLAKE2b checksum. Tests use it to give the
package's reader v2 files, which it must still read bit for bit.

`read_labels` below is the labels reader that split each line on every
whitespace run and wanted exactly two fields. On every file it reads, the
package's reader, which splits on the last run only, must give the same
labels.

`encode_library_v3` below is the v3 library writer, which the package
replaced with v4: magic, version 3, then the body as it is (u64 header
length, JSON header, distinct rows, row indices) and a BLAKE2b checksum.
It gives the committed v3 fixture's bytes exactly. `library_body` and
`seal_library` take a v2, v3 or v4 file apart into that body and seal a body
back into a file of any of those versions, so tests can forge files of each.

`library_rows` below is the library's row deduplication as it stood when
every library was made from one (m, k) matrix of all its rows. The package's
`build_library`, which deduplicates as it sketches, must give the same
distinct rows and row indices bit for bit. The package never imports this
module.
"""

import hashlib
import json
import zlib

import numpy as np

from driftsketch import ConfigError, DataError, FeatureVector, ImageGrid, StoreError
from driftsketch.core import derive_seed
from driftsketch.extract import _patch_geometry, _projection_matrix, extract_batch
from driftsketch.noiselab import (
    _NOISE_OPS,
    NOISE_KINDS,
    SensitivityReport,
    SensitivityRow,
    _check_level,
)
from driftsketch.sketchlib import build_library, gate_check
from driftsketch.stats import drift_report
from driftsketch.store import _jdump


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
    if max(raster) > maxval:
        raise StoreError(
            f"sample-above-maxval: {path}: largest sample {max(raster)}, maxval {maxval}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / float(maxval)
    return ImageGrid(width=width, height=height, channels=channels, pixels=pixels)


def validate_image(img):
    if img.width < 1 or img.height < 1:
        raise DataError(f"dimension-mismatch: width={img.width}, height={img.height}")
    if img.channels not in (1, 3):
        raise DataError(f"dimension-mismatch: channels must be 1 or 3, got {img.channels}")
    expected = img.width * img.height * img.channels
    if img.pixels.shape[0] != expected:
        raise DataError(
            f"dimension-mismatch: {img.pixels.shape[0]} pixels supplied, expected {expected}"
        )
    in_range = (img.pixels >= 0.0) & (img.pixels <= 1.0)
    if in_range.all():
        return
    finite = np.isfinite(img.pixels)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise DataError(f"non-finite-pixel({idx})")
    idx = int(np.argmin(in_range))
    raise DataError(f"out-of-range-pixel({idx}): value {float(img.pixels[idx])!r}")


def extract_builtin(img, cfg, source_id=""):
    validate_image(img)
    if img.width < cfg.grid or img.height < cfg.grid:
        raise DataError(
            f"image-smaller-than-grid: {img.width}x{img.height} image, grid {cfg.grid}"
        )

    g, b, ch = cfg.grid, cfg.hist_bins, img.channels
    planes = np.ascontiguousarray(img.pixels.reshape(img.height, img.width, ch).transpose(2, 0, 1))
    row_starts, col_starts, rows_per, cols_per, counts = _patch_geometry(img.height, img.width, g)

    def patch_sums(x):
        return np.add.reduceat(np.add.reduceat(x, row_starts, axis=1), col_starts, axis=2)

    means = patch_sums(planes) / counts
    dev = planes - np.repeat(np.repeat(means, rows_per, axis=1), cols_per, axis=2)
    stds = np.sqrt(patch_sums(dev * dev) / counts)
    stats = np.stack([means, stds], axis=-1).reshape(ch, 2 * g * g)

    bins = np.maximum(np.ceil(planes * b).astype(np.int64) - 1, 0)
    bins += (np.arange(ch) * b)[:, None, None]
    hist = np.bincount(bins.ravel(), minlength=ch * b).reshape(ch, b) / (img.height * img.width)
    vec = np.concatenate([stats, hist], axis=1).ravel()

    if cfg.projection_dim > 0:
        if cfg.projection_dim > vec.shape[0]:
            raise ConfigError(
                f"config-invalid: projection_dim {cfg.projection_dim} exceeds "
                f"raw dimension {vec.shape[0]}"
            )
        vec = _projection_matrix(cfg.projection_seed, vec.shape[0], cfg.projection_dim) @ vec
    if cfg.l2_normalize:
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec = vec / norm
    return FeatureVector(values=vec, source_id=source_id)


def sensitivity_sweep(baseline, test_images, kind, levels, pipeline, seed=0):
    if kind not in NOISE_KINDS:
        raise ConfigError(f"config-invalid: unknown noise kind {kind!r}")
    if not baseline or not test_images:
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
    batches = []
    flag_counts = []
    for li, level in enumerate(levels):
        corrupted = [
            noise_op(img, level, derive_seed(seed, f"sweep.{kind}.{li}.{j}"))
            for j, img in enumerate(test_images)
        ]
        feats = extract_batch(corrupted, pipeline.extract)
        flag_counts.append(sum(gate_check(library, v, pipeline.gate).anomalous for v in feats))
        batches.append((str(level), feats))
    scored = drift_report(baseline, batches, pipeline.stats, gate_flag_counts=flag_counts)
    rows = [
        SensitivityRow(level, p.cosine_score, p.ks_d, p.ks_p, p.gate_flag_count / p.n_images)
        for level, p in zip(levels, scored.periods)
    ]
    return SensitivityReport(noise_kind=kind, rows=rows)


def load_embeddings(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError:
            raise StoreError(f"malformed-file: cannot read {path}: not UTF-8 text")
    if not lines:
        raise StoreError("malformed-file(line 1): empty file, header expected")
    header = lines[0].split()
    if (
        len(header) != 4
        or header[0] != "driftsketch-emb"
        or header[1] != "v1"
        or not header[2].startswith("dim=")
        or not header[3].startswith("count=")
    ):
        raise StoreError(f"malformed-file(line 1): bad header {lines[0]!r}")
    try:
        dim = int(header[2][4:])
        count = int(header[3][6:])
    except ValueError:
        raise StoreError(f"malformed-file(line 1): non-integer dim/count in {lines[0]!r}")
    if dim < 1 or count < 0:
        raise StoreError(f"malformed-file(line 1): dim={dim}, count={count}")

    records = [(n, ln) for n, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(records) != count:
        raise StoreError(
            f"malformed-file(line {len(lines)}): header promises {count} records, "
            f"found {len(records)}"
        )
    out = []
    seen = set()
    for lineno, line in records:
        fields = line.split()
        rec_id = fields[0]
        if rec_id in seen:
            raise StoreError(f"malformed-file(line {lineno}): duplicate id {rec_id!r}")
        seen.add(rec_id)
        if len(fields) - 1 != dim:
            raise DataError(f"dimension-mismatch({rec_id}): {len(fields) - 1} values, expected {dim}")
        try:
            values = np.array([float(x) for x in fields[1:]])
        except ValueError:
            raise StoreError(f"malformed-file(line {lineno}): unparseable value")
        if not np.isfinite(values).all():
            raise DataError(f"non-finite-value({rec_id})")
        out.append(FeatureVector(values=values, source_id=rec_id))
    return out


def encode_embeddings_v2(features, dim=None):
    ids = [v.source_id for v in features]
    rows = np.array([v.values for v in features], dtype=np.float64)
    count, dim = len(ids), features[0].dim if features else dim
    head = f"driftsketch-emb v2 dim={dim} count={count}\n" + json.dumps(ids, separators=(",", ":"))
    head = head.encode("ascii") + b" " * (-(len(head) + 1) % 8) + b"\n"
    data = head + rows.reshape(count, dim).astype("<f8", copy=False).tobytes()
    return data + hashlib.blake2b(data, digest_size=8).digest()


def read_labels(path):
    labels = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2 or fields[1] not in ("0", "1"):
            raise DataError(f"malformed-file(line {lineno}): expected '<id> <0|1>'")
        labels[fields[0]] = int(fields[1])
    return labels


def library_rows(minima):
    """(distinct, row_index) of m minima rows: each row's bytes, sliced from
    the whole matrix, take the next slot at first sight."""
    rows = np.array(minima, dtype=np.uint64)
    data, width = rows.tobytes(), rows.itemsize * rows.shape[1]
    slots = {}
    row_index = np.array(
        [slots.setdefault(data[i : i + width], len(slots)) for i in range(0, len(data), width)],
        dtype=np.intp,
    )
    return rows[np.unique(row_index, return_index=True)[1]], row_index


def encode_library_v3(lib):
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
        b"DSKL",
        (3).to_bytes(2, "little"),
        len(header).to_bytes(8, "little"),
        header,
        lib.distinct_minima.astype("<u8").tobytes(),
        lib.row_index.astype("<u4").tobytes(),
    ))
    return data + hashlib.blake2b(data, digest_size=8).digest()


def library_body(data):
    """The body of a v2, v3 or v4 library file: as stored, or inflated (v4)."""
    if int.from_bytes(data[4:6], "little") >= 4:
        return zlib.decompress(data[14:-8])
    return data[6:-8]


def seal_library(body, version):
    """A library file of `version` around any body, under a valid checksum:
    v2 and v3 store the body as it is, v4 its length and one level-1 zlib
    stream of it."""
    data = b"DSKL" + version.to_bytes(2, "little")
    if version >= 4:
        data += len(body).to_bytes(8, "little") + zlib.compress(body, 1)
    else:
        data += body
    return data + hashlib.blake2b(data, digest_size=8).digest()
