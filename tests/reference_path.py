"""Reference copy of the per-image path as it stood before its in-place rewrite.

`load_image`, `validate_image` and `extract_builtin` below decode, check and
extract with a separate NumPy pass and a fresh array for every step: a
byte-at-a-time header tokenizer, a divide after the cast, one range mask,
stacked and concatenated statistics, and a clamped histogram. The package's
own functions must agree with them bit for bit, and raise the same errors
with the same text.

`sensitivity_sweep` below is the level-major sweep: it corrupts the whole
test set at one level, extracts it, then goes on to the next level, so it
holds the test set and two noised generations at once. The package's
image-major sweep must give the same report. The package never imports this
module.
"""

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
