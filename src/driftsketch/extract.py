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
    # channel-major (ch, h, w) copy: every step below runs along long rows
    planes = np.ascontiguousarray(img.pixels.reshape(img.height, img.width, ch).transpose(2, 0, 1))
    row_starts, col_starts, rows_per, cols_per, counts = _patch_geometry(img.height, img.width, g)
    # reduceat needs every patch non-empty (at equal consecutive edges it
    # returns one element, not an empty sum); the grid check above ensures it

    def patch_sums(x):
        # (ch, h, w) -> (ch, g, g): rows within each band, then columns
        return np.add.reduceat(np.add.reduceat(x, row_starts, axis=1), col_starts, axis=2)

    means = patch_sums(planes) / counts
    # two-pass std: each pixel's deviation from the mean of its own patch
    dev = planes - np.repeat(np.repeat(means, rows_per, axis=1), cols_per, axis=2)
    stds = np.sqrt(patch_sums(dev * dev) / counts)
    # (ch, g, g, 2) -> per channel, (mean, std) in row-major patch order
    stats = np.stack([means, stds], axis=-1).reshape(ch, 2 * g * g)

    # right-closed bins (i/b, (i+1)/b], first bin closed at 0; channel c
    # counts into slots [c*b, (c+1)*b) of one bincount
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


def load_embeddings(path):
    """Parse an embedding file into FeatureVectors, preserving record order.

    Format (one record per line after the header):
        driftsketch-emb v1 dim=<d> count=<n>
        <id> <v1> ... <vd>
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise StoreError("malformed-file(line 1): empty file, header expected")
    header = lines[0].split()
    if (
        len(header) != 4
        or header[0] != EMBEDDING_MAGIC
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

