"""Hashing kernels: bin hashing, MinHash minima and signature matching.

All arithmetic is modular uint64 (the splitmix64 finalizer), so outputs are
exact integers on every platform and persisted sketches stay comparable
across machines.
"""

import numpy as np

_U64 = np.uint64

# splitmix64 finalizer multipliers
_MIX_A = _U64(0xBF58476D1CE4E5B9)
_MIX_B = _U64(0x94D049BB133111EB)
# token-combining multipliers (golden-ratio and xxhash primes)
_DIM_MULT = _U64(0x9E3779B97F4A7C15)
_BIN_MULT = _U64(0xC2B2AE3D27D4EB4F)


def _mix64(z):
    """splitmix64 finalizer, vectorized over a uint64 array."""
    z = (z ^ (z >> _U64(30))) * _MIX_A
    z = (z ^ (z >> _U64(27))) * _MIX_B
    return z ^ (z >> _U64(31))


def hash_bins(bins):
    """Map per-dimension bin indices to 64-bit tokens.

    bins: int64 array, entry i the (possibly negative) quantization bin of
    dimension i. Token i mixes the dimension index with the bin index so
    equal bins in different dimensions never share a token.
    """
    bins = np.ascontiguousarray(bins, dtype=np.int64)
    with np.errstate(over="ignore"):
        dims = np.arange(bins.shape[0], dtype=np.uint64)
        z = (dims * _DIM_MULT) ^ (bins.view(np.uint64) * _BIN_MULT)
        return _mix64(z)


def minhash_signature(tokens, salts):
    """Per-salt minima of mix64(token ^ salt) over a token array.

    tokens: uint64 array (non-empty); salts: uint64 array of length k.
    Returns a uint64 array of length k.
    """
    tokens = np.ascontiguousarray(tokens, dtype=np.uint64)
    salts = np.ascontiguousarray(salts, dtype=np.uint64)
    with np.errstate(over="ignore"):
        hashed = _mix64(tokens[:, None] ^ salts[None, :])
    return hashed.min(axis=0)


def match_counts(minima, query):
    """Count matching positions between each signature row and a query.

    minima: uint64 array of shape (m, k); query: uint64 array of length k.
    Returns an int64 array of length m.
    """
    minima = np.ascontiguousarray(minima, dtype=np.uint64)
    query = np.ascontiguousarray(query, dtype=np.uint64)
    return (minima == query[None, :]).sum(axis=1, dtype=np.int64)
