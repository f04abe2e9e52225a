"""Hashing kernels: pinned outputs and structural properties.

Sketches and libraries are persisted across machines, so the exact uint64
outputs are part of the file formats: the known answers below must never
change without a library format version bump.
"""

import hashlib

import numpy as np

import driftsketch
from driftsketch import _kernels
from driftsketch.core import FeatureVector, seeded_rng
from driftsketch.sketchlib import QuantConfig, SketchConfig, build_library
from driftsketch.store import save_library

import reference_path


def _hex(arr):
    return [hex(int(x)) for x in arr]


class TestKnownAnswers:
    def test_hash_bins(self):
        bins = np.array([0, -1, 2**62, -(2**62), 1, 2**63 - 1, -(2**63)], dtype=np.int64)
        assert _hex(_kernels.hash_bins(bins)) == [
            "0x0",
            "0x152ce392350699df",
            "0x7f63aa8bd4ea43d6",
            "0xbc77e3955694b236",
            "0xcbe2e7eeaa127d12",
            "0x25188c6ed1caa6f8",
            "0x4d7e6a268a67c5ff",
        ]

    def test_minhash_signature_extreme_values(self):
        tokens = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        salts = np.array([0, 2**64 - 1, 12345], dtype=np.uint64)
        assert _hex(_kernels.minhash_signature(tokens, salts)) == [
            "0x0",
            "0x0",
            "0xf321f585bb66785",
        ]

    def test_minhash_signature(self):
        tokens = np.array([42, 10**9, 2**63], dtype=np.uint64)
        salts = np.array([1, 2, 3, 2**64 - 2], dtype=np.uint64)
        assert _hex(_kernels.minhash_signature(tokens, salts)) == [
            "0x22cb06b07578bbfe",
            "0xad0591c4cdeb1d46",
            "0x1e0b67091a06ddf9",
            "0xf2ccc45ddbf1d73",
        ]

    def test_saved_library_bytes(self):
        # pins salts, tokenize, minhash and the v3 library encoding end to end;
        # v4 holds the same body in a zlib stream, whose bytes may differ
        # between zlib builds while what it inflates to does not
        feats = [
            FeatureVector(values=np.array([0.1 * i, -0.25, 0.5 + 0.01 * i, 1.0]),
                          source_id=f"v{i}")
            for i in range(4)
        ]
        lib = build_library(feats, QuantConfig(), SketchConfig(k=8, hash_seed=7), "fp")
        data = reference_path.encode_library_v3(lib)
        assert len(data) == 429
        assert hashlib.blake2b(data, digest_size=8).hexdigest() == "52575897630fdf21"
        assert reference_path.library_body(save_library(lib)) == data[6:-8]


class TestKernelProperties:
    def test_hash_bins_depends_on_dimension(self):
        # the same bin value in different dimensions must yield different tokens
        tokens = _kernels.hash_bins(np.zeros(64, dtype=np.int64))
        assert len(set(int(t) for t in tokens)) == 64

    def test_minhash_of_superset_never_increases(self):
        rng = seeded_rng(4, "kernel-sub")
        tokens = rng.integers(0, 2**63, size=100, dtype=np.uint64)
        salts = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        small = _kernels.minhash_signature(tokens[:50], salts)
        full = _kernels.minhash_signature(tokens, salts)
        assert (full <= small).all()

    def test_match_counts(self):
        minima = np.array([[1, 2, 3], [1, 0, 3], [7, 8, 9]], dtype=np.uint64)
        counts = _kernels.match_counts(minima, np.array([1, 2, 3], dtype=np.uint64))
        assert counts.dtype == np.int64
        assert counts.tolist() == [3, 2, 0]

    def test_backend_reported(self):
        assert driftsketch.KERNEL_BACKEND == "pure"
