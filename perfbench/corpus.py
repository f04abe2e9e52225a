"""Seeded synthetic image inputs for the pipeline benchmark.

The image families follow ``tests/synthcorpus.py``: a vertical gradient plus
a sinusoidal texture and faint pixel noise, so images of one family cluster
tightly in feature space while uniform-noise junk lands far away. Streams
come from NumPy's ``SeedSequence`` rather than the program's own
``seeded_rng``, so the inputs stay the same whatever the program under test
does. Every image is 64x64 and written as 8-bit binary PGM (gray) or PPM
(RGB).
"""

import os
import shutil

import numpy as np

SIZE = 64

# stream labels: one per image family, so families never share draws
_GRAY, _HELD, _NOISY, _JUNK, _PICK, _ORDER, _SCENE = range(7)


def rng_for(seed, stream, index=0):
    """Independent generator for (benchmark seed, family, image index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def gray_image(rng):
    """One image of the jittered grayscale family (phase and amplitude vary)."""
    yy = np.linspace(0.0, 1.0, SIZE)[:, None]
    xx = np.linspace(0.0, 1.0, SIZE)[None, :]
    phase = rng.uniform(0.0, 0.2)
    amp = 0.18 + rng.uniform(-0.01, 0.01)
    base = 0.15 + 0.55 * yy + amp * np.sin(2 * np.pi * (3.0 * xx + phase))
    return np.clip(base + rng.normal(0.0, 0.01, size=(SIZE, SIZE)), 0.0, 1.0)


def rgb_scene(rng, shift=0.0):
    """One frame of a fixed RGB scene: only the pixel noise varies per frame.

    A fixed scene keeps unshifted periods statistically indistinguishable
    from the baseline under the pooled-scalar KS test, whose p-value treats
    the pooled components as independent; per-image jitter would make that
    test flag even an unshifted period. ``shift`` brightens every channel.
    """
    yy = np.linspace(0.0, 1.0, SIZE)[:, None]
    xx = np.linspace(0.0, 1.0, SIZE)[None, :]
    texture = 0.18 * np.sin(2 * np.pi * 3.0 * xx)
    planes = [0.15 + 0.05 * c + 0.5 * yy + texture for c in range(3)]
    scene = np.stack(planes, axis=-1) + shift
    return np.clip(scene + rng.normal(0.0, 0.01, size=scene.shape), 0.0, 1.0)


def write_pnm(path, arr):
    """Write an array in [0,1] as binary PGM (2-D) or PPM (3-D, RGB)."""
    magic = b"P5" if arr.ndim == 2 else b"P6"
    header = magic + f"\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + np.rint(arr * 255.0).astype(np.uint8).tobytes())


def _write_all(directory, arrays, prefix, ext):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, arr in enumerate(arrays):
        path = os.path.join(directory, f"{prefix}{i:05d}.{ext}")
        write_pnm(path, arr)
        paths.append(path)
    return paths


def gray_dir(directory, seed, n, prefix="b"):
    """n jittered grayscale images; returns their paths in filename order."""
    return _write_all(
        directory, (gray_image(rng_for(seed, _GRAY, i)) for i in range(n)), prefix, "pgm"
    )


def scene_dir(directory, seed, n, label, shift=0.0, prefix="f"):
    """n RGB scene frames; ``label`` keeps sets written with one seed disjoint."""
    return _write_all(
        directory,
        (rgb_scene(rng_for(seed, _SCENE, label * 1_000_000 + i), shift) for i in range(n)),
        prefix,
        "ppm",
    )


def gate_queries(directory, seed, baseline_paths, held, noisy, junk, copies):
    """Shuffled gate queries: held-out, noise-corrupted, junk and copies.

    Returns ``{filename: kind}`` with kind one of held, noisy, junk, copy.
    Noise-corrupted images cycle through four Gaussian sigmas, which puts
    their scores near the default threshold. Copies repeat the bytes of
    seeded picks from ``baseline_paths``. Filenames follow a seeded
    permutation, so the kinds arrive interleaved in filename order.
    """
    kinds = ["held"] * held + ["noisy"] * noisy + ["junk"] * junk + ["copy"] * copies
    order = rng_for(seed, _ORDER).permutation(len(kinds))
    picks = rng_for(seed, _PICK).choice(len(baseline_paths), size=copies, replace=False)
    os.makedirs(directory, exist_ok=True)
    names = {}
    counters = {"held": 0, "noisy": 0, "junk": 0, "copy": 0}
    for slot, kind in zip(order, kinds):
        i = counters[kind]
        counters[kind] += 1
        name = f"q{slot:05d}.pgm"
        path = os.path.join(directory, name)
        if kind == "copy":
            shutil.copyfile(baseline_paths[picks[i]], path)
        elif kind == "held":
            write_pnm(path, gray_image(rng_for(seed, _HELD, i)))
        elif kind == "noisy":
            rng = rng_for(seed, _NOISY, i)
            sigma = (0.1, 0.15, 0.2, 0.25)[i % 4]
            noisy_img = gray_image(rng) + rng.normal(0.0, sigma, size=(SIZE, SIZE))
            write_pnm(path, np.clip(noisy_img, 0.0, 1.0))
        else:
            write_pnm(path, rng_for(seed, _JUNK, i).uniform(0.0, 1.0, (SIZE, SIZE)))
        names[name] = kind
    return names
