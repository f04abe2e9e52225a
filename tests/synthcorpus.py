"""Seeded synthetic image corpus shared across the test suite.

The generator produces smooth structured rasters (vertical gradient plus a
phase-jittered sinusoidal texture and faint pixel noise) so that images from
one seed family cluster tightly in feature space while junk inputs (uniform
noise, constants) land far away. Everything is keyed off `seeded_rng`, so
test expectations are stable across runs and platforms.
"""

import numpy as np

from driftsketch import ImageGrid
from driftsketch.core import seeded_rng


def structured_image(rng, width=28, height=28):
    yy = np.linspace(0.0, 1.0, height)[:, None]
    xx = np.linspace(0.0, 1.0, width)[None, :]
    phase = rng.uniform(0.0, 0.2)
    amp = 0.18 + rng.uniform(-0.01, 0.01)
    base = 0.15 + 0.55 * yy + amp * np.sin(2 * np.pi * (3.0 * xx + phase))
    noise = rng.normal(0.0, 0.01, size=(height, width))
    return ImageGrid.from_array(np.clip(base + noise, 0.0, 1.0))


def corpus(seed, n, label="corpus", width=28, height=28):
    """n structured images with independent per-image streams."""
    return [
        structured_image(seeded_rng(seed, f"{label}.{i}"), width, height) for i in range(n)
    ]


def rgb_corpus(seed, n, label="rgb", width=28, height=28):
    """n RGB images, each channel a structured plane from its own stream."""

    def plane(i, c):
        return structured_image(seeded_rng(seed, f"{label}.{i}.{c}"), width, height).to_array()

    return [
        ImageGrid.from_array(np.concatenate([plane(i, c) for c in range(3)], axis=-1))
        for i in range(n)
    ]


def uniform_noise_images(seed, n, width=28, height=28):
    rng = seeded_rng(seed, "uniform-junk")
    return [ImageGrid.from_array(rng.uniform(0.0, 1.0, (height, width))) for _ in range(n)]


def constant_images(levels=(0.0, 0.25, 0.5, 0.75, 1.0), width=28, height=28):
    return [ImageGrid.from_array(np.full((height, width), lv)) for lv in levels]


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size)
        i = 0
        while i < v.size:
            j = i
            while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
                j += 1
            r[order[i : j + 1]] = (i + j) / 2.0
            i = j + 1
        return r

    rx = ranks(xs) - (xs.size - 1) / 2.0
    ry = ranks(ys) - (ys.size - 1) / 2.0
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


if __name__ == "__main__":
    # python tests/synthcorpus.py DIR N: write N seeded structured 28x28 PGM images into DIR
    import os
    import sys

    from driftsketch import save_image

    directory, n = sys.argv[1], int(sys.argv[2])
    os.makedirs(directory, exist_ok=True)
    for i, img in enumerate(corpus(0, n, "cli")):
        save_image(img, os.path.join(directory, f"img{i:03d}.pgm"))
