"""Feature extraction: a deterministic built-in extractor plus an ingestion
seam for externally computed embeddings.

The built-in extractor summarizes an image as per-patch intensity statistics
(mean and population standard deviation over a g x g grid) plus a global
intensity histogram per channel, optionally followed by a seeded Gaussian
random projection and L2 normalization. It is a pure function of
(image, config).
"""

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Annotated

import numpy as np

from ._zstream import Body, checked, seal
from .core import (
    ConfigError,
    DataError,
    FeatureVector,
    StoreError,
    _as_vector,
    _at_least,
    _check_fields,
    _check_seed,
    _distinct_ids,
    _number,
    _pow2_scaled,
    seeded_rng,
)


@dataclass(frozen=True)
class ExtractConfig:
    grid: Annotated[int, _at_least(1)] = 4
    hist_bins: Annotated[int, _at_least(2)] = 16
    projection_dim: Annotated[int, _at_least(0)] = 0
    projection_seed: Annotated[int, _check_seed] = 0
    l2_normalize: bool = True

    __post_init__ = _check_fields

    def raw_dim(self, channels):
        """Feature length before projection for an image with `channels`."""
        return channels * (2 * self.grid * self.grid + self.hist_bins)


def extract_fingerprint(cfg):
    """Short stable hash of an ExtractConfig, recorded in sketch libraries."""
    payload = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


@lru_cache(maxsize=32)
def _projection_matrix(seed, d_in, d_out):
    rng = seeded_rng(seed, "extract.projection")
    mat = rng.standard_normal((d_out, d_in))
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=64)
def _patch_geometry(height, width, grid):
    """(row starts, column starts, rows per band, columns per band, pixels
    per patch) of the g x g grid; floor-based cell boundaries, unambiguous
    for non-divisible sizes."""
    row_edges = [(height * i) // grid for i in range(grid + 1)]
    col_edges = [(width * i) // grid for i in range(grid + 1)]
    rows_per = np.diff(row_edges)
    cols_per = np.diff(col_edges)
    counts = np.outer(rows_per, cols_per)
    for arr in (rows_per, cols_per, counts):
        arr.flags.writeable = False
    return row_edges[:-1], col_edges[:-1], rows_per, cols_per, counts


def extract_builtin(img, cfg, source_id=""):
    """Extract the built-in feature vector from a valid image.

    Layout, per channel: (mean, std) for each of the g*g patches in row-major
    patch order, then the b-bin normalized histogram; channels concatenated
    in order. Value 1.0 falls in the last histogram bin. Each channel is
    computed exactly as a gray image of that plane would be.
    """
    if img.width < cfg.grid or img.height < cfg.grid:
        raise DataError(
            f"image-smaller-than-grid: {img.width}x{img.height} image, grid {cfg.grid}"
        )

    g, b, ch = cfg.grid, cfg.hist_bins, img.channels
    h, w = img.height, img.width
    # channel-major (ch, h, w) copy: every step below runs along long rows
    planes = np.ascontiguousarray(img.pixels.reshape(h, w, ch).transpose(2, 0, 1))
    row_starts, col_starts, rows_per, cols_per, counts = _patch_geometry(h, w, g)
    # reduceat needs every patch non-empty (at equal consecutive edges it
    # returns one element, not an empty sum); the grid check above ensures it

    def patch_sums(x):
        # (ch, h, w) -> (ch, g, g): rows within each band, then columns
        return np.add.reduceat(np.add.reduceat(x, row_starts, axis=1), col_starts, axis=2)

    # the raw vector, filled in place through `out`, its (ch, 2*g*g + b)
    # view: per channel, (mean, std) of each patch in row-major patch order,
    # then the b-bin histogram
    vec = np.empty(ch * (2 * g * g + b), dtype=np.float64)
    out = vec.reshape(ch, 2 * g * g + b)
    means, stds = out[:, : 2 * g * g].reshape(ch, g, g, 2).transpose(3, 0, 1, 2)
    np.divide(patch_sums(planes), counts, out=means, dtype=np.float64)
    # two-pass std: each pixel's deviation from its own patch's mean, squared in place
    dev = np.repeat(np.repeat(means, rows_per, axis=1), cols_per, axis=2)
    np.subtract(planes, dev, out=dev, dtype=np.float64)
    np.multiply(dev, dev, out=dev, dtype=np.float64)
    np.sqrt(np.divide(patch_sums(dev), counts, out=stds, dtype=np.float64), out=stds)

    # right-closed bins (i/b, (i+1)/b], first bin closed at 0: ceil(x*b) is a
    # slot in 0..b, slot 0 (x = 0) folds into bin 0, and channel c counts into
    # slots [c*(b+1), (c+1)*(b+1)) of one bincount (small float offsets, exact)
    slots = np.ceil(np.multiply(planes, float(b), out=dev, dtype=np.float64), out=dev)
    slots += (b + 1) * np.arange(ch, dtype=np.float64)[:, None, None]
    hist = np.bincount(slots.astype(np.intp).ravel(), minlength=ch * (b + 1)).reshape(ch, b + 1)
    hist[:, 1] += hist[:, 0]
    np.divide(hist[:, 1:], float(h * w), out=out[:, 2 * g * g :], dtype=np.float64)

    if cfg.projection_dim > 0:
        if cfg.projection_dim > vec.shape[0]:
            raise ConfigError(
                f"config-invalid: projection_dim {cfg.projection_dim} exceeds "
                f"raw dimension {vec.shape[0]}"
            )
        vec = _projection_matrix(cfg.projection_seed, vec.shape[0], cfg.projection_dim) @ vec
    if cfg.l2_normalize:
        # sqrt(vec . vec) is what np.linalg.norm computes for a real vector
        norm = np.sqrt(vec.dot(vec))
        if norm > 0.0:
            vec /= norm
    vec.flags.writeable = False  # new, so the vector holds it without a copy
    return FeatureVector(values=vec, source_id=source_id)


def extract_batch(images, cfg, source_ids=None):
    """Extract features for any iterable of images, preserving input order."""
    images = list(images)
    if source_ids is None:
        source_ids = [str(i) for i in range(len(images))]
    if len(source_ids) != len(images):
        raise DataError(
            f"dimension-mismatch: {len(images)} images but {len(source_ids)} source ids"
        )
    return [extract_builtin(img, cfg, sid) for img, sid in zip(images, source_ids)]


def l2_normalize(v):
    """Scale a FeatureVector to unit Euclidean norm; zero vectors pass through."""
    v = _as_vector(v, "v")
    scaled = _pow2_scaled(v.values)  # the same quotients, but no |v|^2 overflows or vanishes
    norm = np.linalg.norm(scaled)
    if norm == 0.0:
        return v
    return FeatureVector(values=scaled / norm, source_id=v.source_id)


EMBEDDING_MAGIC = "driftsketch-emb"


def _embedding_header(line, version):
    """The sizes an embedding file's first line declares: (dim, count), and
    for v3 also bytes, the inflated length of its body."""
    header = line.split()
    keys = ("dim", "count", "bytes") if version == "v3" else ("dim", "count")
    if (
        len(header) != 2 + len(keys)
        or header[0] != EMBEDDING_MAGIC
        or header[1] != version
        or not all(field.startswith(key + "=") for field, key in zip(header[2:], keys))
    ):
        raise StoreError(f"malformed-file(line 1): bad header {line!r}")
    try:
        sizes = tuple(_number(int, field.partition("=")[2]) for field in header[2:])
    except ValueError:
        raise StoreError(f"malformed-file(line 1): non-integer {'/'.join(keys)} in {line!r}")
    if sizes[0] < 1 or min(sizes[1:]) < 0:
        declared = ", ".join(f"{key}={size}" for key, size in zip(keys, sizes))
        raise StoreError(f"malformed-file(line 1): {declared}")
    return sizes


def _byte_planes(matrix):
    """The (8, d, n) byte-plane view of an (n, d) little-endian float64 matrix:
    plane p holds byte p of every value, column by column."""
    count, dim = matrix.shape
    return matrix.view(np.uint8).reshape(count, dim, 8).transpose(2, 1, 0)


def _encode_embeddings(ids, rows):
    """The bytes of a v3 embedding file holding string `ids` and their (n, d)
    float64 `rows` (layout: ``load_embeddings``); the caller checks them."""
    count, dim = rows.shape
    # JSON escapes every non-ASCII character and newline, so the ids take one ASCII line
    ids_line = json.dumps(ids, separators=(",", ":")).encode("ascii") + b"\n"
    # the sign and exponent bytes of similar values repeat, which deflate finds
    planes = np.ascontiguousarray(_byte_planes(rows.astype("<f8", copy=False)))
    head = f"{EMBEDDING_MAGIC} v3 dim={dim} count={count} bytes={len(ids_line) + planes.size}\n"
    return seal(head.encode("ascii"), [ids_line, planes])


def _embedding_vectors(ids_line, count, dim, data_size, matrix):
    """FeatureVectors of an embedding body: `ids_line` (the bytes up to and
    including its first newline, if any), `data_size` bytes after it, and the
    (count, dim) float64 `matrix` they hold, whose rows become the vectors."""
    if not ids_line.endswith(b"\n"):
        raise StoreError("malformed-payload: header and id lines expected")
    try:
        ids = json.loads(ids_line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise StoreError(f"malformed-payload: undecodable ids ({exc})")
    if not isinstance(ids, list) or len(ids) != count:
        raise StoreError(f"malformed-payload: ids must be a list of {count} strings")
    if data_size != 8 * dim * count:
        raise StoreError(
            f"malformed-payload: dim={dim}, count={count} need {8 * dim * count} data bytes, "
            f"found {data_size}"
        )
    try:
        _distinct_ids(ids)
    except DataError as exc:
        raise StoreError(f"malformed-payload: {exc}") from None
    return [FeatureVector(values=row, source_id=sid) for sid, row in zip(ids, matrix)]


def _load_embeddings_binary(data, version):
    """FeatureVectors of a v2 or v3 file: the ids line, then the eight
    eighths of the matrix, each read straight into where it belongs in a
    new matrix (a byte plane for v3, a run of whole rows for v2)."""
    sealed = checked(data)
    head_end = data.find(b"\n", 0, len(sealed))
    if head_end < 0:
        raise StoreError("malformed-payload: header and id lines expected")
    sizes = _embedding_header(data[:head_end].decode("ascii", "replace"), version)
    dim, count = sizes[:2]
    body = Body(sealed[head_end + 1 :], sizes[2] if version == "v3" else None)
    ids_size = body.size - 8 * dim * count
    ids_line = body.read(max(ids_size, 0))
    if ids_size <= 0 or ids_line.find(b"\n") != ids_size - 1:
        # the ids line does not end where the matrix starts: name what the body holds
        line, newline, _ = (ids_line + body.read(body.size)).partition(b"\n")
        body.close()
        ids_line = line + newline
        return _embedding_vectors(ids_line, count, dim, body.size - len(ids_line), None)
    # eighth 0 comes first, so the matrix is made only once the body has
    # given an eighth of it, whatever size the header declares
    first = body.read(dim * count)
    matrix = np.empty((count, dim), "<f8")
    eighths = (_byte_planes(matrix) if version == "v3"
               else matrix.view(np.uint8).reshape(8, count, dim))
    eighths[0] = np.frombuffer(first, np.uint8).reshape(eighths[0].shape)
    del first
    for eighth in eighths[1:]:
        body.readinto(eighth)
    body.close()
    matrix.flags.writeable = False
    return _embedding_vectors(ids_line, count, dim, body.size - len(ids_line), matrix)


def load_embeddings(path):
    """Read an embedding file into FeatureVectors, preserving record order.

    v3 (what ``store.write_embeddings`` writes) and v2 (written before v3;
    still read) are sealed files (see ``_zstream``) with a text first line::

        driftsketch-emb v3 dim=<d> count=<n> bytes=<B>
        driftsketch-emb v2 dim=<d> count=<n>

    Their body is the n ids as one JSON array and a newline (v2 pads the
    array with spaces so the rows start 8-byte aligned), then the n x d
    little-endian float64 values: as byte planes (8, d, n) in v3, byte 0 of
    column 0 of every row, ..., byte 7 of column d-1; row-major in v2. A v3
    body is one zlib stream that inflates to B bytes, a v2 body is stored.
    Each eighth of the values goes straight into one new matrix, so a load
    never holds the whole inflated body; every vector is a read-only row
    view of that matrix. A file whose checksum holds but whose contents are
    wrong raises a named StoreError. v1 (text, no checksum; the format for
    external producers)::

        driftsketch-emb v1 dim=<d> count=<n>
        <id> <v1> ... <vd>
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for version in ("v2", "v3"):
        if data.startswith(f"{EMBEDDING_MAGIC} {version} ".encode("ascii")):
            return _load_embeddings_binary(data, version)
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise StoreError(f"malformed-file: cannot read {path}: not UTF-8 text")
    if not lines:
        raise StoreError("malformed-file(line 1): empty file, header expected")
    dim, count = _embedding_header(lines[0], "v1")

    # (physical line number, text) of each non-blank record line
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
            values = np.array([_number(float, x) for x in fields[1:]])
        except ValueError:
            raise StoreError(f"malformed-file(line {lineno}): unparseable value")
        out.append(FeatureVector(values=values, source_id=rec_id))
    return out

