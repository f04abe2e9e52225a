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
from .core import ConfigError, DataError, StoreError, _check_count, _check_seed, seeded_rng


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

    Every library is made by ``_from_distinct``, which takes the distinct
    rows and the row indices as they are and checks that they are
    canonical, in O(u*k + m) time and memory. ``build_library`` deduplicates
    as it sketches and a v2-v4 file already holds the two arrays, so
    neither makes an (m, k) matrix. ``from_minima``, for v1 files and the
    public API, deduplicates m given rows first.
    The ``(source_id, signature)`` pairs in ``entries`` are made on first
    use, each ``signature.minima`` a read-only view of its distinct row.
    ``minima_matrix()`` gathers the (m, k) rows aligned with ``ids`` on first
    call and keeps them; the union minima are likewise computed on first use
    and kept.
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
        ids = tuple(ids)
        k = sketch_config.k
        rows = np.array(minima, dtype=np.uint64).reshape(len(ids), -1 if ids else k)
        if rows.shape[1] != k:
            raise DataError(f"dimension-mismatch: {rows.shape[1]} minima for k={k}")
        distinct, row_index = _distinct_rows(rows, len(ids), k)
        return cls._from_distinct(
            ids, distinct, row_index, sketch_config, quant_config, extract_fingerprint, dim
        )

    @classmethod
    def _from_distinct(
        cls, ids, distinct, row_index, sketch_config, quant_config, extract_fingerprint, dim
    ):
        """Library from its canonical parts: u pairwise different (u, k)
        ``distinct`` rows, with k that of ``sketch_config``, and one
        ``row_index`` entry per id, each below u, in which 0..u-1 first
        occur in order. The library keeps the two arrays, read-only from
        then on, so callers hand over fresh ones. Parts that are not
        canonical can only come from a forged file, so they raise
        StoreError("malformed-payload"); duplicate ids raise
        DataError("duplicate-source-id").
        """
        if dim is not None:
            _check_count("dim", dim, 1)
        ids = tuple(ids)
        seen = set()
        for sid in ids:
            if sid in seen:
                raise DataError(f"duplicate-source-id: {sid!r}")
            seen.add(sid)
        distinct = np.ascontiguousarray(distinct, dtype=np.uint64)
        row_index = np.asarray(row_index, dtype=np.intp)
        _check_canonical(distinct, row_index)
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


def _distinct_rows(rows, m, k):
    """(distinct, row_index) of m length-k uint64 rows, from any iterable:
    the first occurrence of each row's bytes takes the next distinct slot,
    so the u distinct rows come in order of first occurrence. Only the u
    distinct rows are kept, so a generator of rows is read in O(u*k + m)
    memory."""
    slots = {}
    firsts = []
    row_index = np.empty(m, dtype=np.intp)
    for i, row in enumerate(rows):
        j = row_index[i] = slots.setdefault(row.tobytes(), len(firsts))
        if j == len(firsts):
            firsts.append(row)
    return np.array(firsts, dtype=np.uint64).reshape(len(firsts), k), row_index


def _check_canonical(distinct, row_index):
    """StoreError("malformed-payload") unless (distinct, row_index) is what
    `_distinct_rows` makes: every index below u, 0..u-1 first occurring in
    order, and the u rows pairwise different."""
    u = distinct.shape[0]
    used = int(row_index.max(initial=-1)) + 1
    if used > u:
        raise StoreError(f"malformed-payload: row index {used - 1} >= u={u}")
    if used < u:
        raise StoreError(f"malformed-payload: distinct row {used} of u={u} has no index")
    # the first index is 0, and each exceeds every index before it by one at most
    if row_index[:1].any() or (row_index[1:] > np.maximum.accumulate(row_index[:-1]) + 1).any():
        raise StoreError("malformed-payload: row indices do not first occur in order 0..u-1")
    data, width = distinct.tobytes(), distinct.itemsize * distinct.shape[1]
    if len({data[i : i + width] for i in range(0, len(data), width)}) < u:
        raise StoreError(f"malformed-payload: the u={u} distinct rows repeat a row")


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


_VERDICTS = ("acceptable", "anomalous")


@dataclass(frozen=True)
class GateResult:
    source_id: str
    score: float
    verdict: str

    @property
    def anomalous(self):
        return self.verdict == "anomalous"


@dataclass(frozen=True)
class GateReport:
    """The verdicts of one gate run, one row per checked item, in input order."""

    library: str
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for r in self.rows:
            if not 0.0 <= r.score <= 1.0 or r.verdict not in _VERDICTS:
                raise DataError(f"invalid-verdict: {r.source_id!r}: {r.score!r}, {r.verdict!r}")


def tokenize(v, q):
    """Quantize a feature vector into a set of (dimension, bin) tokens.

    Component i with value x maps to token hash64(i, floor((x - origin) /
    bin_width)); hash64 is the documented splitmix64-based mixer in
    `_kernels`. Vectors that agree bin-wise in every dimension produce
    identical token sets. A bin index outside the int64 range raises
    DataError("value-out-of-range") instead of wrapping in the cast.
    """
    values = v.values if hasattr(v, "values") else np.asarray(v, dtype=np.float64)
    return TokenSet(tokens=_kernels.hash_bins(_quantize(values, q)))


def _quantize(values, q):
    """The int64 bin index of each component of `values`, checked as
    `tokenize` documents."""
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
    return bins.astype(np.int64)


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


# byte cap of one token table's value rows, and how many tables _token_table keeps.
# One byte under 4 MiB: NumPy asks Linux for transparent huge pages on arrays of
# 4 MiB and more, and a 2 MiB huge page is committed whole at its first write
_TABLE_BYTES = (4 << 20) - 1
_TABLES = 4
# byte budget of one table's signature memo, and the bytes charged to each
# entry beside its key and minima (bytes and array headers, dict slot)
_MEMO_BYTES = 1 << 20
_MEMO_ENTRY_OVERHEAD = 256


class _TokenTable:
    """The k hashed values ``mix64(token ^ salt)`` of the tokens already
    sketched under one (k, hash_seed), so a token is hashed once per process.
    Built-in d-dim features give at most 21*d tokens at the default bin width.

    ``values`` has ``_TABLE_BYTES // (8*k)`` rows (4,095 at k=128), filled
    in order of arrival and never moved; pages stay empty until written,
    since the array is too small for NumPy to ask for huge pages.
    ``index`` pairs the stored tokens, sorted, with their rows. `_add`
    writes the rows of new tokens, under the lock, before it publishes a new
    pair by one assignment, so a lookup needs no lock. Every token is stored
    until the rows run out; later ones are hashed on each call.

    ``memo`` maps the bytes of an int64 bin vector to its read-only minima,
    so `_sketch` sketches each distinct bin vector once. An entry is charged
    its key and minima bytes plus ``_MEMO_ENTRY_OVERHEAD`` (256), and entries
    are added while ``memo_bytes`` stays within ``_MEMO_BYTES`` (1 MiB: 630
    gray or 431 RGB vectors at k=128). Entries are never evicted, so a stream
    of more distinct vectors than fit cannot thrash the memo; the vectors
    beyond it are sketched on every call. ``_token_table`` keeps at most
    ``_TABLES`` (4) tables, so with their memos they take about 20 MiB.
    """

    def __init__(self, salts):
        k = salts.shape[0]
        self.salts = salts
        self.values = np.empty((_TABLE_BYTES // (8 * k), k), dtype=np.uint64)
        self.index = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.intp))
        self.memo = {}
        self.memo_bytes = 0
        self._lock = threading.Lock()

    def minima(self, tokens):
        """Per-salt minima of mix64(token ^ salt) over distinct tokens."""
        keys, rows = self.index
        at = keys.searchsorted(tokens)
        hit = keys.searchsorted(tokens, "right") > at
        found = rows[at[hit]]
        n_hit = found.shape[0]
        stacked = np.empty((tokens.shape[0], self.salts.shape[0]), dtype=np.uint64)
        self.values.take(found, 0, stacked[:n_hit], "clip")
        if n_hit < tokens.shape[0]:
            miss = tokens[~hit]
            hashed = _kernels.salted_hashes(miss, self.salts, out=stacked[n_hit:])
            if keys.shape[0] < self.values.shape[0]:
                self._add(miss, hashed)
        return stacked.min(axis=0)

    def _add(self, tokens, hashed):
        """Store the tokens not stored yet in the next rows, while rows last."""
        with self._lock:
            keys, rows = self.index
            n = keys.shape[0]
            # another thread may have stored some of them since the lookup
            absent = keys.searchsorted(tokens, "right") == keys.searchsorted(tokens)
            new = np.flatnonzero(absent)[: self.values.shape[0] - n]
            self.values[n : n + new.shape[0]] = hashed[new]
            merged = np.concatenate((keys, tokens[new]))
            order = merged.argsort(kind="stable")  # one merge: both parts are sorted
            new_rows = np.arange(n, n + new.shape[0])
            self.index = (merged[order], np.concatenate((rows, new_rows))[order])

    def remember(self, key, minima):
        """Memoize a bin vector's minima while the memo's budget lasts."""
        cost = len(key) + minima.nbytes + _MEMO_ENTRY_OVERHEAD
        with self._lock:
            if key not in self.memo and self.memo_bytes + cost <= _MEMO_BYTES:
                self.memo[key] = minima
                self.memo_bytes += cost


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


def _sketch(values, q, s):
    """The minima of ``minhash(tokenize(values, q), s)``, bit for bit.

    The int64 bin vector is the memo key (see ``_TokenTable``), so vectors
    that differ only within their bins share an entry. A miss hashes the
    bins and takes the token-table minima through `minhash`, and a vector
    that fails a check raises before it reaches the memo. `values` must be
    one-dimensional: a (d, 1) array would share its key with the vector.
    """
    bins = _quantize(values, q)
    table = _token_table(s.k, s.hash_seed)
    key = bins.tobytes()
    minima = table.memo.get(key)
    if minima is None:
        minima = minhash(TokenSet(tokens=_kernels.hash_bins(bins)), s).minima
        table.remember(key, minima)
    return minima


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
    Only the distinct minima rows are kept, so no (m, k) matrix is made.
    """
    if not features:
        raise DataError("empty-input")
    dims = sorted({v.values.shape[0] for v in features})
    if len(dims) > 1:
        raise DataError(f"dimension-mismatch: mixed dims {dims}")
    # rows are deduplicated by their minima bytes as they are sketched: bin
    # vectors that differ can sketch to equal minima, and they share a row
    distinct, row_index = _distinct_rows(
        (_sketch(v.values, q, s) for v in features), len(features), s.k
    )
    return SketchLibrary._from_distinct(
        [v.source_id for v in features], distinct, row_index, s, q, extract_fingerprint, dims[0]
    )


def gate_check(lib, v, g, extract_fingerprint=None):
    """Alg.-style gate: aggregate similarity of `v` against the library.

    Aggregation max/mean scores against each entry; union scores against the
    signature of the union of all library token sets (the elementwise minima,
    by the MinHash union property). Anomalous iff score < j_alpha; a score
    exactly at the threshold is acceptable. A query that is not a vector, or
    whose dimension differs from the library's (where the library records
    one), raises DataError("dimension-mismatch").

    Per query the cost is quantizing `v`, a memo lookup of its bin vector
    (hashing and MinHash run only for bin vectors not seen before, see
    ``_TokenTable``), and one O(u*k) compare against the library's u
    distinct minima rows, read in place. Under mean the u match counts are
    spread back over the m rows through ``row_index``, an O(m) gather, so
    every score equals the one a compare with all m rows gives, bit for bit.
    The union minima are computed once per library and reused.
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
    if values.ndim != 1:
        raise DataError("dimension-mismatch: query is not a vector")
    if lib.dim is not None and values.shape[0] != lib.dim:
        raise DataError(
            f"dimension-mismatch: query has {values.shape[0]} components, "
            f"library baseline has {lib.dim}"
        )
    s = lib.sketch_config
    minima = _sketch(values, lib.quant_config, s)
    if g.aggregation == "union":
        score = estimate_jaccard(lib.union_signature, MinHashSignature(minima, s.k, s.hash_seed))
    else:
        matches = _kernels.match_counts(lib.distinct_minima, minima)
        if g.aggregation == "max":  # dividing by k > 0 keeps the order: max, then divide
            score = float(matches.max()) / s.k
        else:
            score = float(np.divide(matches, float(s.k), dtype=np.float64)[lib.row_index].mean())
    source_id = v.source_id if hasattr(v, "source_id") else ""
    return GateResult(source_id, score, "anomalous" if score < g.j_alpha else "acceptable")
