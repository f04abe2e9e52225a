"""Hashing kernels: bin hashing, MinHash minima and signature matching.

All arithmetic is modular uint64 (the splitmix64 finalizer), so outputs are
exact integers on every platform and persisted sketches stay comparable
across machines. Every operation is on arrays, whose integer arithmetic
wraps without a warning (only NumPy scalar arithmetic warns on overflow).
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
    """splitmix64 finalizer over a writable uint64 array, in place; returns z.

    One shift buffer is the only allocation.
    """
    shifted = z >> _U64(30)
    z ^= shifted
    z *= _MIX_A
    np.right_shift(z, _U64(27), out=shifted)
    z ^= shifted
    z *= _MIX_B
    np.right_shift(z, _U64(31), out=shifted)
    z ^= shifted
    return z


def hash_bins(bins):
    """Map per-dimension bin indices to 64-bit tokens.

    bins: int64 array, entry i the (possibly negative) quantization bin of
    dimension i. Token i mixes the dimension index with the bin index so
    equal bins in different dimensions never share a token.
    """
    bins = np.ascontiguousarray(bins, dtype=np.int64)
    dims = np.arange(bins.shape[0], dtype=np.uint64)
    z = (dims * _DIM_MULT) ^ (bins.view(np.uint64) * _BIN_MULT)
    return _mix64(z)


def salted_hashes(tokens, salts, out=None):
    """mix64(token ^ salt) for every (token, salt) pair.

    tokens: uint64 array of length n (may be empty); salts: uint64 array of
    length k. Returns an (n, k) uint64 array, row i the k hashed values of
    token i; written into `out`, an (n, k) uint64 array, if given.
    """
    tokens = np.ascontiguousarray(tokens, dtype=np.uint64)
    salts = np.ascontiguousarray(salts, dtype=np.uint64)
    z = np.bitwise_xor(tokens[:, None], salts[None, :], out=out)
    return _mix64(z)


def minhash_signature(tokens, salts):
    """Per-salt minima of mix64(token ^ salt) over a token array.

    tokens: uint64 array (non-empty); salts: uint64 array of length k.
    Returns a uint64 array of length k.
    """
    return salted_hashes(tokens, salts).min(axis=0)


def match_counts(minima, query):
    """Count matching positions between each signature row and a query.

    minima: uint64 array of shape (m, k); query: uint64 array of length k.
    Returns an int64 array of length m.
    """
    minima = np.ascontiguousarray(minima, dtype=np.uint64)
    query = np.ascontiguousarray(query, dtype=np.uint64)
    return (minima == query[None, :]).sum(axis=1, dtype=np.int64)
