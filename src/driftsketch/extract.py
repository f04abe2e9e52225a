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

import numpy as np

from ._zstream import Inflater, inflate, seal
from .core import (
    ConfigError,
    DataError,
    FeatureVector,
    StoreError,
    _check_count,
    _check_seed,
    seeded_rng,
    validate_image,
)


@dataclass(frozen=True)
class ExtractConfig:
    grid: int = 4
    hist_bins: int = 16
    projection_dim: int = 0
    projection_seed: int = 0
    l2_normalize: bool = True

    def __post_init__(self):
        _check_count("grid", self.grid, 1)
        _check_count("hist_bins", self.hist_bins, 2)
        _check_count("projection_dim", self.projection_dim, 0)
        _check_seed(self.projection_seed)

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
    validate_image(img)
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

    # the raw vector, filled in place: per channel, (mean, std) of each patch
    # in row-major patch order, then the b-bin histogram
    out = np.empty((ch, 2 * g * g + b), dtype=np.float64)
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
    vec = out.ravel()

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
    return FeatureVector(values=vec, source_id=source_id)


def extract_batch(images, cfg, source_ids=None):
    """Extract features for many images, preserving input order."""
    if source_ids is None:
        source_ids = [str(i) for i in range(len(images))]
    if len(source_ids) != len(images):
        raise DataError(
            f"dimension-mismatch: {len(images)} images but {len(source_ids)} source ids"
        )
    return [extract_builtin(img, cfg, sid) for img, sid in zip(images, source_ids)]


def l2_normalize(v):
    """Scale a FeatureVector to unit Euclidean norm; zero vectors pass through."""
    norm = np.linalg.norm(v.values)
    if norm == 0.0:
        return v
    return FeatureVector(values=v.values / norm, source_id=v.source_id)


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
        sizes = tuple(int(field.partition("=")[2]) for field in header[2:])
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
    if not isinstance(ids, list) or len(ids) != count or not all(isinstance(s, str) for s in ids):
        raise StoreError(f"malformed-payload: ids must be a list of {count} strings")
    if data_size != 8 * dim * count:
        raise StoreError(
            f"malformed-payload: dim={dim}, count={count} need {8 * dim * count} data bytes, "
            f"found {data_size}"
        )
    seen = set()
    for sid in ids:
        if sid in seen:
            raise StoreError(f"malformed-payload: duplicate id {sid!r}")
        seen.add(sid)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite-value({ids[int(np.argmin(finite))]})")
    return [FeatureVector(values=row, source_id=sid) for sid, row in zip(ids, matrix)]


def _first_line(data, start, end):
    """``data[start:end]`` up to and including its first newline, or all of it."""
    cut = data.find(b"\n", start, end)
    return bytes(data[start : end if cut < 0 else cut + 1])


def _load_embeddings_v2(data, start, end, dim, count):
    """The body ``data[start:end]`` of a v2 file: the ids line, then the
    matrix row-major, its rows views of the file's bytes."""
    ids_line = _first_line(data, start, end)
    data_size = end - start - len(ids_line)
    matrix = None
    if data_size == 8 * dim * count:
        matrix = np.frombuffer(data, "<f8", dim * count, start + len(ids_line)).reshape(count, dim)
    return _embedding_vectors(ids_line, count, dim, data_size, matrix)


def _load_embeddings_v3(stream, size, dim, count):
    """The `size`-byte body a v3 file's zlib stream inflates to: the ids
    line, then the matrix as byte planes, each inflated straight into a new
    matrix. The stream is checked whole before the ids are read."""
    data_size = 8 * dim * count
    if size <= data_size:  # no room for an ids line: name what the body holds
        body = inflate(stream, size)
        return _load_embeddings_v2(body, 0, size, dim, count)
    inflater = Inflater(stream, size)
    ids_line = inflater.read(size - data_size)
    # plane 0 comes first, so the matrix is made only once the stream has
    # given an eighth of it, whatever size the header declares
    plane0 = inflater.read(dim * count)
    matrix = np.empty((count, dim), "<f8")
    planes = _byte_planes(matrix)
    planes[0] = np.frombuffer(plane0, np.uint8).reshape(dim, count)
    del plane0
    for plane in planes[1:]:
        inflater.readinto(plane)
    inflater.close()
    matrix.flags.writeable = False
    ids_line = _first_line(ids_line, 0, len(ids_line))
    return _embedding_vectors(ids_line, count, dim, size - len(ids_line), matrix)


def _load_embeddings_binary(data, version):
    """FeatureVectors of a v2 or v3 file, its checksum verified first."""
    end = len(data) - 8
    if end < 0 or hashlib.blake2b(memoryview(data)[:end], digest_size=8).digest() != data[end:]:
        raise StoreError("checksum-mismatch")
    head_end = data.find(b"\n", 0, end)
    if head_end < 0:
        raise StoreError("malformed-payload: header and id lines expected")
    sizes = _embedding_header(data[:head_end].decode("ascii", "replace"), version)
    dim, count = sizes[:2]
    if version == "v2":
        return _load_embeddings_v2(data, head_end + 1, end, dim, count)
    return _load_embeddings_v3(memoryview(data)[head_end + 1 : end], sizes[2], dim, count)


def load_embeddings(path):
    """Read an embedding file into FeatureVectors, preserving record order.

    v3 (what ``store.write_embeddings`` writes)::

        driftsketch-emb v3 dim=<d> count=<n> bytes=<B>
        <one zlib stream that inflates to B bytes: the n ids as one JSON array
         and a newline, then the n x d little-endian float64 values as byte
         planes (8, d, n): byte 0 of column 0 of every row, ..., byte 7 of
         column d-1><8-byte BLAKE2b checksum of every byte before it>

    The checksum is checked before anything is inflated, and inflating
    stops one byte past B. The ids line comes out first, then each byte
    plane straight into the new matrix, so a load never holds the whole
    inflated body. v2 (written before v3; still read)::

        driftsketch-emb v2 dim=<d> count=<n>
        <the n ids as one JSON array, space-padded so the rows start 8-byte aligned>
        <n x d little-endian float64 rows><8-byte BLAKE2b checksum of every byte before it>

    v2 and v3 give every vector as a read-only row view of one matrix, and a
    file whose checksum holds but whose contents are wrong raises a named
    StoreError. v1 (text, no checksum; the format for external producers)::

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
            values = np.array([float(x) for x in fields[1:]])
        except ValueError:
            raise StoreError(f"malformed-file(line {lineno}): unparseable value")
        if not np.isfinite(values).all():
            raise DataError(f"non-finite-value({rec_id})")
        out.append(FeatureVector(values=values, source_id=rec_id))
    return out

