"""MinHash sketching over quantized feature vectors, and the anomaly gate.

A feature vector becomes a set of (dimension, bin) tokens via per-dimension
quantization; MinHash maps the token set to k per-hash minima; the fraction
of matching minima between two signatures is an unbiased estimate of the
Jaccard similarity of the token sets. The gate compares an incoming vector's
signature against a baseline library and flags it anomalous when the
aggregated similarity falls below the threshold.
"""

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .core import ConfigError, DataError, _check_count, _check_seed, seeded_rng


# a bin index must have magnitude below 2**63 to be cast to int64 exactly
_BIN_LIMIT = 2.0**63


@dataclass(frozen=True)
class QuantConfig:
    bin_width: float = 0.05
    origin: float = 0.0
    clamp_lo: float | None = None
    clamp_hi: float | None = None

    def __post_init__(self):
        if not 0 < self.bin_width < np.inf:
            raise ConfigError(f"config-invalid: bin_width must lie in (0, inf), got {self.bin_width}")
        if not -np.inf < self.origin < np.inf:
            raise ConfigError(f"config-invalid: origin must be finite, got {self.origin}")
        if (self.clamp_lo is None) != (self.clamp_hi is None):
            raise ConfigError("config-invalid: clamp_lo and clamp_hi must be set together")
        if self.clamp_lo is not None and not -np.inf < self.clamp_lo < self.clamp_hi < np.inf:
            raise ConfigError(
                f"config-invalid: need finite clamp_lo {self.clamp_lo} < clamp_hi {self.clamp_hi}"
            )


@dataclass(frozen=True)
class TokenSet:
    """Duplicate-free set of 64-bit tokens, stored sorted for canonical form."""

    tokens: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.tokens, dtype=np.uint64))
        if (arr[1:] == arr[:-1]).any():
            arr = np.unique(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "tokens", arr)

    def __len__(self):
        return self.tokens.shape[0]


@dataclass(frozen=True)
class SketchConfig:
    k: int = 128
    hash_seed: int = 0

    def __post_init__(self):
        _check_count("k", self.k, 1)
        _check_seed(self.hash_seed)


@dataclass(frozen=True)
class MinHashSignature:
    minima: np.ndarray
    k: int
    hash_seed: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.minima, dtype=np.uint64)
        arr.flags.writeable = False
        object.__setattr__(self, "minima", arr)
        if arr.shape[0] != self.k:
            raise DataError(f"dimension-mismatch: {arr.shape[0]} minima for k={self.k}")


class SketchLibrary:
    """The baseline: one signature per trusted image, plus the configs that
    produced them (so incompatible comparisons can be rejected).

    Each distinct minima row is stored once. ``distinct_minima`` is a
    read-only, C-contiguous (u, k) uint64 matrix of the distinct rows in
    first-occurrence order, and ``row_index`` (read-only, length m) maps
    ``ids[i]`` to its row, so the signature of ``ids[i]`` is
    ``distinct_minima[row_index[i]]``. Near-duplicate baselines quantize to
    few distinct rows (u << m), and the gate compares a query with the u
    rows only: O(u*k) per query instead of O(m*k).

    ``from_minima`` is the only constructor. The ``(source_id, signature)``
    pairs in ``entries`` are made on first use, each ``signature.minima`` a
    read-only view of its distinct row. ``minima_matrix()`` gathers the
    (m, k) rows aligned with ``ids`` on first call and keeps them; the union
    minima are likewise computed on first use and kept.
    ``dim`` is the dimension of the feature vectors the rows were sketched
    from, or None where it is unknown (a library read from a v1 or v2 file);
    the gate rejects queries of another dimension.
    The library is read-only: its attributes cannot be reassigned.
    """

    @classmethod
    def from_minima(
        cls, ids, minima, sketch_config, quant_config, extract_fingerprint="", dim=None
    ):
        """Library from distinct ids and their minima rows (any (m, k)
        array-like), sketched from ``dim``-dimensional features.

        Equal rows are stored once, in order of first occurrence, so two
        libraries with the same ids and rows are identical.
        """
        if dim is not None:
            _check_count("dim", dim, 1)
        ids = tuple(ids)
        seen = set()
        for sid in ids:
            if sid in seen:
                raise DataError(f"duplicate-source-id: {sid!r}")
            seen.add(sid)
        k = sketch_config.k
        rows = np.array(minima, dtype=np.uint64).reshape(len(ids), -1 if ids else k)
        if rows.shape[1] != k:
            raise DataError(f"dimension-mismatch: {rows.shape[1]} minima for k={k}")
        # the first occurrence of each row's bytes takes the next distinct slot
        data, width = rows.tobytes(), rows.itemsize * k
        slots = {}
        row_index = np.array(
            [slots.setdefault(data[i : i + width], len(slots)) for i in range(0, len(data), width)],
            dtype=np.intp,
        )
        distinct = rows[np.unique(row_index, return_index=True)[1]]
        distinct.flags.writeable = False
        row_index.flags.writeable = False
        lib = cls.__new__(cls)
        vars(lib).update(
            ids=ids,
            sketch_config=sketch_config,
            quant_config=quant_config,
            extract_fingerprint=extract_fingerprint,
            dim=None if dim is None else int(dim),
            distinct_minima=distinct,
            row_index=row_index,
        )
        return lib

    def __setattr__(self, name, value):
        raise AttributeError(f"SketchLibrary is read-only: cannot set {name!r}")

    def __len__(self):
        return len(self.ids)

    def minima_matrix(self):
        """The read-only (m, k) minima rows aligned with ``ids``, gathered
        from the distinct rows on first call and kept."""
        return self._gathered

    @cached_property
    def _gathered(self):
        matrix = self.distinct_minima[self.row_index]
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def entries(self):
        """``(source_id, signature)`` pairs in row order, made on first use."""
        k, hash_seed = self.sketch_config.k, self.sketch_config.hash_seed
        return tuple(
            (sid, MinHashSignature(minima=self.distinct_minima[j], k=k, hash_seed=hash_seed))
            for sid, j in zip(self.ids, self.row_index)
        )

    @cached_property
    def union_signature(self):
        """Signature of the union of every entry's token set: the column
        minima, by the MinHash union property. The distinct rows have the
        same column minima as all m rows."""
        return MinHashSignature(
            minima=self.distinct_minima.min(axis=0),
            k=self.sketch_config.k,
            hash_seed=self.sketch_config.hash_seed,
        )


@dataclass(frozen=True)
class GateConfig:
    j_alpha: float = 0.5
    aggregation: str = "max"

    def __post_init__(self):
        if not 0.0 <= self.j_alpha <= 1.0:
            raise ConfigError(f"config-invalid: j_alpha must lie in [0,1], got {self.j_alpha}")
        if self.aggregation not in ("max", "mean", "union"):
            raise ConfigError(
                f"config-invalid: aggregation must be max, mean or union, got {self.aggregation!r}"
            )


@dataclass(frozen=True)
class GateResult:
    source_id: str
    score: float
    anomalous: bool

    @property
    def verdict(self):
        return "anomalous" if self.anomalous else "acceptable"


def tokenize(v, q):
    """Quantize a feature vector into a set of (dimension, bin) tokens.

    Component i with value x maps to token hash64(i, floor((x - origin) /
    bin_width)); hash64 is the documented splitmix64-based mixer in
    `_kernels`. Vectors that agree bin-wise in every dimension produce
    identical token sets. A bin index outside the int64 range raises
    DataError("value-out-of-range") instead of wrapping in the cast.
    """
    values = v.values if hasattr(v, "values") else np.asarray(v, dtype=np.float64)
    if not np.isfinite(values).all():
        raise DataError("non-finite-value: cannot tokenize")
    if q.clamp_lo is not None:
        values = np.clip(values, q.clamp_lo, q.clamp_hi)
    with np.errstate(over="ignore"):
        bins = np.floor((values - q.origin) / q.bin_width)
    if not np.abs(bins).max(initial=0.0) < _BIN_LIMIT:  # also catches NaN
        bad = int(np.argmax(~(np.abs(bins) < _BIN_LIMIT)))
        raise DataError(
            f"value-out-of-range: component {bad} = {float(values[bad])!r} falls in a "
            f"quantization bin outside the int64 range"
        )
    return TokenSet(tokens=_kernels.hash_bins(bins.astype(np.int64)))


@lru_cache(maxsize=64)
def _minhash_salts(k, hash_seed):
    # one labeled stream per hash function, per the determinism contract
    salts = np.empty(k, dtype=np.uint64)
    for j in range(k):
        salts[j] = seeded_rng(hash_seed, f"minhash.{j}").integers(
            0, 2**64, dtype=np.uint64
        )
    salts.flags.writeable = False
    return salts


# byte cap of one token table; _token_table keeps at most _TABLES of them
_TABLE_BYTES = 4 << 20
_TABLES = 4
_BUCKET_BITS = 13


class _TokenTable:
    """The k hashed values ``mix64(token ^ salt)`` of the tokens already
    sketched under one (k, hash_seed), so a token is hashed once per process.

    The built-in features give few distinct tokens: a non-negative,
    L2-normalised component falls in at most ``1/bin_width + 1`` bins, so a
    d-dimensional feature yields at most 21*d tokens at the default bin width
    (1,008 gray, 3,024 RGB), however many images are sketched.

    The index has 2**13 buckets of two slots, a token's bucket being its low
    bits (tokens are splitmix64 outputs, so those bits are uniform). A slot
    holds a stored token and its row of a (rows, k) value matrix; row 0 is
    never used, so row 0 marks a free slot. A free slot's key is 0, or 1 in
    bucket 0: no token of that bucket has that key. The matrix is allocated
    once, never moved, and filled in order of arrival. A token whose bucket
    is full, or that arrives once every row is filled, is hashed on each
    call instead. So a lookup is a fixed number of vectorized steps however
    full the table is, and nothing is ever re-sorted or copied. One table
    takes at most ``_TABLE_BYTES`` (4 MiB: 12 bytes per slot plus 8k bytes
    per row; 3,903 tokens at k=128) and ``_token_table`` keeps at most
    ``_TABLES`` (4), so all tables together take at most 16 MiB. Pages are
    zero-filled or left empty until written, so the untouched part of a
    table costs no resident memory.
    """

    def __init__(self, salts):
        buckets = 1 << _BUCKET_BITS
        k = salts.shape[0]
        self.salts = salts
        self.mask = np.int64(buckets - 1)
        self.keys = np.zeros((buckets, 2), dtype=np.uint64)
        self.keys[0] = 1
        self.row_of = np.zeros((buckets, 2), dtype=np.int32)
        rows = min(2 * buckets, (_TABLE_BYTES - 24 * buckets) // (8 * k))
        self.values = np.empty((rows, k), dtype=np.uint64)
        self.filled = 1
        self._lock = threading.Lock()

    def minima(self, tokens):
        """Per-salt minima of mix64(token ^ salt) over distinct tokens."""
        home = tokens.view(np.int64) & self.mask
        match = self.keys.take(home, 0) == tokens[:, None]
        rows = self.row_of.take(home, 0)[match]
        n_hit = rows.shape[0]
        stacked = np.empty((tokens.shape[0], self.salts.shape[0]), dtype=np.uint64)
        self.values.take(rows, 0, stacked[:n_hit], "clip")
        if n_hit < tokens.shape[0]:
            miss = ~(match[:, 0] | match[:, 1])
            hashed = _kernels.salted_hashes(tokens[miss], self.salts, out=stacked[n_hit:])
            if self.filled < self.values.shape[0]:
                self._add(tokens[miss], home[miss], hashed)
        return stacked.min(axis=0)

    def _add(self, tokens, home, hashed):
        """Store absent tokens in the free slots of their buckets while rows
        last. Writers hold the lock; a lookup needs none, because a slot's
        row is written before its key."""
        with self._lock:
            for _ in range(2):  # a bucket takes at most one new token per pass
                free = self.row_of[home] == 0
                # not stored by the first pass, nor by another thread since the lookup
                absent = (self.keys[home] != tokens[:, None]).all(axis=1)
                fits = np.flatnonzero((free[:, 0] | free[:, 1]) & absent)
                first = np.unique(home[fits], return_index=True)[1]
                new = fits[first][: self.values.shape[0] - self.filled]
                if new.shape[0] == 0:  # every bucket full, or no rows left
                    return
                slot = (~free[new, 0]).astype(np.intp)
                rows = self.filled + np.arange(new.shape[0])
                self.values[rows] = hashed[new]
                self.row_of[home[new], slot] = rows
                self.keys[home[new], slot] = tokens[new]
                self.filled += new.shape[0]


@lru_cache(maxsize=_TABLES)
def _token_table(k, hash_seed):
    return _TokenTable(_minhash_salts(k, hash_seed))


def minhash(t, cfg):
    """MinHash signature of a token set: per-function minima over the tokens.

    Each token's k hashed values come from the process's token table for
    (k, hash_seed), hashed on first sight (see ``_TokenTable``), so the
    minima are exactly those of ``_kernels.minhash_signature``.
    """
    if len(t) == 0:
        raise DataError("empty-token-set")
    minima = _token_table(cfg.k, cfg.hash_seed).minima(t.tokens)
    return MinHashSignature(minima=minima, k=cfg.k, hash_seed=cfg.hash_seed)


def _check_compatible(a, b):
    if a.k != b.k or a.hash_seed != b.hash_seed:
        raise DataError(
            f"incompatible-signatures: (k={a.k}, seed={a.hash_seed}) vs "
            f"(k={b.k}, seed={b.hash_seed})"
        )


def estimate_jaccard(a, b):
    """Fraction of matching minima: an unbiased Jaccard estimator."""
    _check_compatible(a, b)
    return float(np.count_nonzero(a.minima == b.minima)) / a.k


def exact_jaccard(a, b):
    """|A n B| / |A u B| over token sets; both empty counts as 1."""
    na, nb = len(a), len(b)
    if na == 0 and nb == 0:
        return 1.0
    inter = np.intersect1d(a.tokens, b.tokens, assume_unique=True).shape[0]
    return inter / (na + nb - inter)


def build_library(features, q, s, extract_fingerprint=""):
    """Sketch every feature vector into a library, preserving input order.

    Every vector must have the same dimension, which the library records.
    """
    if not features:
        raise DataError("empty-input")
    dims = sorted({v.values.shape[0] for v in features})
    if len(dims) > 1:
        raise DataError(f"dimension-mismatch: mixed dims {dims}")
    rows = [minhash(tokenize(v, q), s).minima for v in features]
    return SketchLibrary.from_minima(
        [v.source_id for v in features], rows, s, q, extract_fingerprint, dim=dims[0]
    )


def gate_check(lib, v, g, extract_fingerprint=None):
    """Alg.-style gate: aggregate similarity of `v` against the library.

    Aggregation max/mean scores against each entry; union scores against the
    signature of the union of all library token sets (the elementwise minima,
    by the MinHash union property). Anomalous iff score < j_alpha; a score
    exactly at the threshold is acceptable. A query whose dimension differs
    from the library's (where the library records one) raises
    DataError("dimension-mismatch").

    Per query the cost is sketching `v` plus one O(u*k) compare against the
    library's u distinct minima rows, read in place. Under mean the u match
    counts are spread back over the m rows through ``row_index``, an O(m)
    gather, so every score equals the one a compare with all m rows gives,
    bit for bit. The union minima are computed once per library and reused.
    """
    if len(lib) == 0:
        raise DataError("empty-library")
    if (
        extract_fingerprint is not None
        and lib.extract_fingerprint != ""
        and extract_fingerprint != lib.extract_fingerprint
    ):
        raise DataError(
            f"incompatible-config: library extractor {lib.extract_fingerprint}, "
            f"gate extractor {extract_fingerprint}"
        )
    values = v.values if hasattr(v, "values") else np.asarray(v, dtype=np.float64)
    if lib.dim is not None and values.shape[0] != lib.dim:
        raise DataError(
            f"dimension-mismatch: query has {values.shape[0]} components, "
            f"library baseline has {lib.dim}"
        )
    tokens = tokenize(values, lib.quant_config)
    if len(tokens) == 0:
        raise DataError("empty-token-set")
    sig = minhash(tokens, lib.sketch_config)
    if g.aggregation == "union":
        score = estimate_jaccard(lib.union_signature, sig)
    else:
        fractions = _kernels.match_counts(lib.distinct_minima, sig.minima) / sig.k
        if g.aggregation == "max":
            score = float(fractions.max())
        else:
            score = float(fractions[lib.row_index].mean())
    source_id = v.source_id if hasattr(v, "source_id") else ""
    return GateResult(source_id=source_id, score=score, anomalous=score < g.j_alpha)
