"""MinHash sketching over quantized feature vectors, and the anomaly gate.

A feature vector becomes a set of (dimension, bin) tokens via per-dimension
quantization; MinHash maps the token set to k per-hash minima; the fraction
of matching minima between two signatures is an unbiased estimate of the
Jaccard similarity of the token sets. Hash function j salts each token with
the first 64-bit draw of the stream ``minhash.{j}`` under the sketch's hash
seed, computed without building its generator (`core._first_draw`). The
gate compares an incoming vector's signature against a baseline library and
flags it anomalous when the aggregated similarity falls below the threshold.
"""

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Annotated

import numpy as np

from . import _kernels
from .core import _FINITE, _POSITIVE, _UNIT, ConfigError, DataError, StoreError, _array
from .core import _as_vector, _at_least, _batch, _check_fields, _check_seed, _distinct_ids
from .core import _first_draw, _held, _one_of, _rows


# a bin index must have magnitude below 2**63 to be cast to int64 exactly
_BIN_LIMIT = 2.0**63


@dataclass(frozen=True)
class QuantConfig:
    bin_width: Annotated[float, _POSITIVE] = 0.05
    origin: Annotated[float, _FINITE] = 0.0
    clamp_lo: Annotated[float, _FINITE] | None = None
    clamp_hi: Annotated[float, _FINITE] | None = None

    def __post_init__(self):
        _check_fields(self)
        if (self.clamp_lo is None) != (self.clamp_hi is None):
            raise ConfigError("config-invalid: clamp_lo and clamp_hi must be set together")
        if self.clamp_lo is not None and not self.clamp_lo < self.clamp_hi:
            raise ConfigError(
                f"config-invalid: clamp_lo must be < clamp_hi {self.clamp_hi}, got {self.clamp_lo}"
            )


@dataclass(frozen=True)
class TokenSet:
    """Duplicate-free set of 64-bit tokens, given as a 1-D array of integers
    (see `core._held`) and stored sorted, in an array of its own, for
    canonical form."""

    tokens: Annotated[np.ndarray, _array("TokenSet.tokens", np.uint64, ndim=1)]

    def __post_init__(self):
        _check_fields(self)
        arr = np.sort(self.tokens)
        if (arr[1:] == arr[:-1]).any():
            arr = np.unique(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "tokens", arr)

    def __len__(self):
        return self.tokens.shape[0]


@dataclass(frozen=True)
class SketchConfig:
    k: Annotated[int, _at_least(1)] = 128
    hash_seed: Annotated[int, _check_seed] = 0

    __post_init__ = _check_fields


@dataclass(frozen=True)
class MinHashSignature:
    """The k minima of a token set under the (k, hash_seed) hash family,
    held by `core._held` as a 1-D uint64 array; `k` and `hash_seed` are
    checked as `SketchConfig` checks them."""

    minima: Annotated[np.ndarray, _array("minima", np.uint64)]
    k: Annotated[int, _at_least(1)]
    hash_seed: Annotated[int, _check_seed]

    def __post_init__(self):
        _check_fields(self)
        if self.minima.shape != (self.k,):
            raise DataError(f"dimension-mismatch: minima of shape {self.minima.shape} for k={self.k}")


@dataclass(frozen=True, eq=False, repr=False)
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

    The constructor takes the canonical parts as they are: distinct str
    ``ids``; u pairwise different ``distinct_minima`` rows of k integers,
    k that of ``sketch_config``; and one ``row_index`` entry per id, each
    below u, in which 0..u-1 first occur in order. It holds the two arrays
    by ``core._held`` and checks them in O(u*k + m) time and memory. Parts
    that are not canonical raise StoreError("malformed-payload"), as from a
    forged file; the ids are checked by ``core._distinct_ids``, and a
    config of another class raises ConfigError. ``build_library``
    deduplicates as it sketches and a v2-v4 file already holds the two
    arrays, so neither makes an (m, k) matrix. ``from_minima``, for v1 files
    and the public API, deduplicates m given rows first.
    The ``(source_id, signature)`` pairs in ``entries`` are made on first
    use, each ``signature.minima`` a read-only view of its distinct row.
    ``minima_matrix()`` gathers the (m, k) rows aligned with ``ids`` on first
    call and keeps them; the union minima are likewise computed on first use
    and kept.
    ``dim`` is the dimension of the feature vectors the rows were sketched
    from, or None where it is unknown (a library read from a v1 or v2 file);
    the gate rejects queries of another dimension.
    The library is read-only: its attributes cannot be reassigned. Two
    libraries are equal only if they are one object.
    """

    ids: tuple
    distinct_minima: Annotated[np.ndarray, _array("distinct_minima", np.uint64)]
    row_index: Annotated[np.ndarray, _array("row_index", np.intp)]
    sketch_config: SketchConfig
    quant_config: QuantConfig
    extract_fingerprint: str = ""
    dim: Annotated[int, _at_least(1)] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", _distinct_ids(self.ids))
        _check_fields(self)
        k, rows = self.sketch_config.k, self.distinct_minima
        if rows.ndim != 2 or rows.shape[1] != k or self.row_index.shape != (len(self.ids),):
            raise StoreError(
                f"malformed-payload: distinct minima of shape {rows.shape} and row index of "
                f"shape {self.row_index.shape} for {len(self.ids)} ids and k={k}"
            )
        _check_canonical(rows, self.row_index)

    @classmethod
    def from_minima(
        cls, ids, minima, sketch_config, quant_config, extract_fingerprint="", dim=None
    ):
        """Library from distinct ids and their minima rows (any (m, k)
        array-like of integers), sketched from ``dim``-dimensional features.

        Equal rows are stored once, in order of first occurrence, so two
        libraries with the same ids and rows are identical.
        """
        ids = tuple(ids)
        k = sketch_config.k
        rows = _held(minima, ": minima", np.uint64)
        if rows.shape != (len(ids), k) and not rows.size == len(ids) == 0:
            raise DataError(
                f"dimension-mismatch: minima of shape {rows.shape} for {len(ids)} ids and k={k}"
            )
        distinct, row_index = _distinct_rows(rows, len(ids), k)
        return cls(ids, distinct, row_index, sketch_config, quant_config, extract_fingerprint, dim)

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
    memory. Both arrays are new and read-only, so a library holds them as
    they are (see ``core._held``)."""
    slots = {}
    firsts = []
    row_index = np.empty(m, dtype=np.intp)
    for i, row in enumerate(rows):
        j = row_index[i] = slots.setdefault(row.tobytes(), len(firsts))
        if j == len(firsts):
            firsts.append(row)
    distinct = np.array(firsts, dtype=np.uint64) if firsts else np.empty((0, k), np.uint64)
    distinct.flags.writeable = row_index.flags.writeable = False
    return distinct, row_index


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
    j_alpha: Annotated[float, _UNIT] = 0.5
    aggregation: Annotated[str, _one_of("max", "mean", "union")] = "max"

    __post_init__ = _check_fields


_VERDICTS = ("acceptable", "anomalous")


@dataclass(frozen=True)
class GateResult:
    source_id: str
    score: Annotated[float, _UNIT]
    verdict: Annotated[str, _one_of(*_VERDICTS)]

    __post_init__ = _check_fields

    @property
    def anomalous(self):
        return self.verdict == "anomalous"


@dataclass(frozen=True)
class GateReport:
    """The verdicts of one gate run, one row per checked item, in input order."""

    library: str
    rows: Annotated[object, _rows(GateResult)]

    __post_init__ = _check_fields


def tokenize(v, q):
    """Quantize a feature vector into a set of (dimension, bin) tokens.

    Component i with value x maps to token hash64(i, floor((x - origin) /
    bin_width)); hash64 is the documented splitmix64-based mixer in
    `_kernels`. Vectors that agree bin-wise in every dimension produce
    identical token sets. A bin index outside the int64 range raises
    DataError("value-out-of-range") instead of wrapping in the cast.
    """
    return _token_set(_quantize(_as_vector(v, "v").values, q))


def _token_set(bins):
    """The TokenSet of an int64 bin vector. Its new tokens are handed over
    read-only, so the set sorts them into its own array without a copy first."""
    tokens = _kernels.hash_bins(bins)
    tokens.flags.writeable = False
    return TokenSet(tokens=tokens)


def _quantize(values, q):
    """The int64 bin index of each component of the finite vector `values`,
    checked as `tokenize` documents."""
    if q.clamp_lo is not None:
        values = np.clip(values, q.clamp_lo, q.clamp_hi)
    with np.errstate(over="ignore"):  # the subtraction and the division may overflow
        bins = np.subtract(values, q.origin)
        bins /= q.bin_width
        np.floor(bins, out=bins)
    if not np.abs(bins).max(initial=0.0) < _BIN_LIMIT:  # also catches NaN
        bad = int(np.argmax(~(np.abs(bins) < _BIN_LIMIT)))
        raise DataError(
            f"value-out-of-range: component {bad} = {float(values[bad])!r} falls in a "
            f"quantization bin outside the int64 range"
        )
    return bins.astype(np.int64)


@lru_cache(maxsize=64)
def _minhash_salts(k, hash_seed):
    """Salt j is the first 64-bit draw of the stream ``seeded_rng(hash_seed,
    f"minhash.{j}")``, one labeled stream per hash function, computed by
    `_first_draw` without building the generator."""
    salts = np.array([_first_draw(hash_seed, f"minhash.{j}") for j in range(k)], dtype=np.uint64)
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
def _cached_token_table(k, hash_seed):
    return _TokenTable(_minhash_salts(k, hash_seed))


_token_table_lock = threading.Lock()


def _token_table(k, hash_seed):
    """The process's one token table for (k, hash_seed). `lru_cache` alone
    lets two threads that miss at once each build a table, and the tokens
    stored in the one it does not keep are lost, so the lookup is locked."""
    with _token_table_lock:
        return _cached_token_table(k, hash_seed)


_token_table.cache_clear = _cached_token_table.cache_clear


def minhash(t, cfg):
    """MinHash signature of a token set: per-function minima over the tokens.

    Each token's k hashed values come from the process's token table for
    (k, hash_seed), hashed on first sight (see ``_TokenTable``), so the
    minima are exactly those of ``_kernels.minhash_signature``.
    """
    if len(t) == 0:
        raise DataError("empty-token-set")
    minima = _token_table(cfg.k, cfg.hash_seed).minima(t.tokens)
    minima.flags.writeable = False  # new, so the signature holds it without a copy
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
        minima = minhash(_token_set(bins), s).minima
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

    The vectors are read by ``core._batch``: a non-empty batch of one
    dimension, which the library records. Only the distinct minima rows are
    kept, so no (m, k) matrix is made.
    """
    features = _batch(features, "features")
    # rows are deduplicated by their minima bytes as they are sketched: bin
    # vectors that differ can sketch to equal minima, and they share a row
    distinct, row_index = _distinct_rows(
        (_sketch(v.values, q, s) for v in features), len(features), s.k
    )
    return SketchLibrary(
        [v.source_id for v in features], distinct, row_index, s, q, extract_fingerprint,
        features[0].dim,
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
    v = _as_vector(v, "query")
    if lib.dim is not None and v.dim != lib.dim:
        raise DataError(
            f"dimension-mismatch: query has {v.dim} components, library baseline has {lib.dim}"
        )
    s = lib.sketch_config
    minima = _sketch(v.values, lib.quant_config, s)
    if g.aggregation == "union":
        score = estimate_jaccard(lib.union_signature, MinHashSignature(minima, s.k, s.hash_seed))
    else:
        matches = _kernels.match_counts(lib.distinct_minima, minima)
        if g.aggregation == "max":  # dividing by k > 0 keeps the order: max, then divide
            score = float(matches.max()) / s.k
        else:
            score = float(np.divide(matches, float(s.k), dtype=np.float64)[lib.row_index].mean())
    return GateResult(v.source_id, score, "anomalous" if score < g.j_alpha else "acceptable")
