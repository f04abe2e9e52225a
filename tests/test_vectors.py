"""Feature vectors are valid by construction, and every function that takes a
vector reads it one way (``core._as_vector``): a FeatureVector as it is,
anything else checked once under the caller's name for the argument."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from driftsketch import (
    DataError,
    DriftSketchError,
    FeatureVector,
    GateConfig,
    HeadModel,
    QuantConfig,
    SketchConfig,
    StatsConfig,
    TrainConfig,
    batch_cosine,
    bce_gradient,
    build_library,
    cosine,
    drift_report,
    gate_check,
    l2_normalize,
    predict,
    save_library,
    tokenize,
    train_head,
)
from driftsketch import SketchLibrary, load_embeddings, write_embeddings


class TestFeatureVector:
    @pytest.mark.parametrize(
        "values, source_id, error",
        [
            ([[1.0], [2.0]], "a", r"^dimension-mismatch\(a\) is not a vector: shape \(2, 1\)$"),
            (3.0, "a", r"^dimension-mismatch\(a\) is not a vector: shape \(\)$"),
            ([1.0, np.nan], "a", r"^non-finite-value\(a\)$"),
            ([np.inf, 1.0], "b", r"^non-finite-value\(b\)$"),
            ([1.0, -np.inf], "", r"^non-finite-value\(\)$"),
            ([1.0], 7, r"^malformed-id: 7 is not a string$"),
            ([1.0], None, r"^malformed-id: None is not a string$"),
        ],
        ids=["2-d", "scalar", "nan", "inf", "minus-inf", "int-id", "none-id"],
    )
    def test_rejected_when_built(self, values, source_id, error):
        with pytest.raises(DataError, match=error):
            FeatureVector(values, source_id)

    def test_empty_vector_builds(self):
        assert FeatureVector([], "a").dim == 0

    def test_values_read_only_contiguous_and_caller_array_kept_writable(self):
        for arr in (np.arange(6.0), np.arange(6.0)[::2], np.arange(3, dtype=np.int32)):
            v = FeatureVector(arr, "a")
            assert v.values.dtype == np.float64 and v.values.flags.c_contiguous
            assert not v.values.flags.writeable and arr.flags.writeable
            assert v.values.tolist() == arr.tolist()
            assert not np.shares_memory(v.values, arr)

    def test_shares_only_a_buffer_nobody_can_write(self):
        owned = np.arange(6.0)
        owned.flags.writeable = False
        view_of_writable = np.arange(6.0)[:]
        view_of_writable.flags.writeable = False
        assert np.shares_memory(FeatureVector(owned).values, owned)
        assert np.shares_memory(FeatureVector(owned[2:]).values, owned)
        assert not np.shares_memory(FeatureVector(view_of_writable).values, view_of_writable)

    def test_caller_cannot_make_a_vector_non_finite_after_building(self, tmp_path):
        a = np.ones(3)
        v, w = FeatureVector(a, "v"), FeatureVector(np.ones(3), "w")
        a[0] = np.nan
        assert v.values.tolist() == [1.0, 1.0, 1.0]
        assert cosine(v, w) == 1.0
        write_embeddings([v], tmp_path / "v.emb")
        assert load_embeddings(tmp_path / "v.emb")[0].values.tolist() == [1.0, 1.0, 1.0]


_MODEL = HeadModel(w=[0.5, -0.25], b=0.1)


class TestConsumersCheckWhatTheyRead:
    """Each of these returned NaN or raised a raw exception."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: predict(_MODEL, [np.nan, 1.0]), "^non-finite-value: x$"),
            (lambda: predict(_MODEL, FeatureVector([np.inf, 1.0])), r"^non-finite-value\(\)$"),
            (lambda: bce_gradient(_MODEL, [([1.0, np.nan], 1)]), r"^non-finite-value: batch\[0\]$"),
            (lambda: l2_normalize([np.nan, 1.0]), "^non-finite-value: v$"),
            (lambda: train_head([([1.0, 2.0], 0), ([np.inf, 1.0], 1)], TrainConfig(epochs=1)),
             r"^non-finite-value: data\[1\]$"),
            (lambda: tokenize([[0.1], [0.2]], QuantConfig()), "^dimension-mismatch: v is not a vector"),
            (lambda: write_embeddings([FeatureVector([], "a")], "unused.emb"),
             "^dimension-mismatch: an embedding file needs dim >= 1, got 0$"),
            (lambda: write_embeddings([FeatureVector([0.0, 0.0], "a")], "unused.emb", dim=1),
             r"^dimension-mismatch: features\[0\] has dim 2, expected 1$"),
        ],
        ids=["predict-nan", "predict-inf", "gradient-nan", "normalize-nan", "train-inf",
             "tokenize-2d", "write-empty-vector", "write-other-dim"],
    )
    def test_named_error(self, call, error, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # where a write that is not refused would land
        with pytest.raises(DataError, match=error):
            call()

    def test_train_head_on_plain_lists(self):
        rows = [([0.2, 0.9], 0), ([0.8, 0.1], 1), ([0.3, 0.7], 0), ([0.9, 0.2], 1)]
        cfg = TrainConfig(lr=0.05, epochs=3, batch_size=2)
        model, curve = train_head(rows, cfg)
        want, want_curve = train_head([(FeatureVector(x), y) for x, y in rows], cfg)
        assert model.w.tobytes() == want.w.tobytes() and model.b == want.b
        assert curve == want_curve


# the whole pipeline: every function that reads a vector, on one drawn vector-like
_D = 3
_QUANT, _SKETCH = QuantConfig(), SketchConfig(k=16, hash_seed=5)
_REF = FeatureVector([0.3, 0.6, 0.9], "ref")
_LIB = build_library([_REF, FeatureVector([0.9, 0.1, 0.4], "other")], _QUANT, _SKETCH)
_HEAD = HeadModel(w=[0.5, -0.25, 1.0], b=0.1)


def _consumers(path):
    """(name, call of one vector-like) for every function that reads a vector."""
    return [
        ("tokenize", lambda v: tokenize(v, _QUANT)),
        ("gate_check", lambda v: gate_check(_LIB, v, GateConfig(aggregation="mean"))),
        ("build_library", lambda v: build_library([v], _QUANT, _SKETCH)),
        ("cosine", lambda v: cosine(v, _REF)),
        ("batch_cosine", lambda v: batch_cosine([v], [v], StatsConfig(cosine_mode="mean_pairwise"))),
        ("drift_report", lambda v: drift_report([v], [("p", [v])], StatsConfig())),
        ("predict", lambda v: predict(_HEAD, v)),
        ("bce_gradient", lambda v: bce_gradient(_HEAD, [(v, 1)])),
        ("train_head", lambda v: train_head([(v, 0), (v, 1)], TrainConfig(epochs=2, batch_size=1))),
        ("l2_normalize", l2_normalize),
        ("write_embeddings", lambda v: (write_embeddings([v], path), load_embeddings(path))[1]),
    ]


def _finite(x):
    """True when every real that `x` holds is finite."""
    if isinstance(x, float):
        return math.isfinite(x)
    if isinstance(x, np.ndarray):
        return x.dtype.kind != "f" or bool(np.isfinite(x).all())
    if isinstance(x, (list, tuple)):
        return all(_finite(item) for item in x)
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    return True


def _canon(x):
    """A value equal for two results exactly when they are equal bit for bit."""
    if isinstance(x, SketchLibrary):
        return save_library(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(_canon(item) for item in x)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(_canon(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x


def _outcome(call, v):
    """("raised", message) of a named error, or ("returned", canonical result)."""
    try:
        result = call(v)
    except DriftSketchError as exc:
        assert re.match(r"[a-z0-9]+(-[a-z0-9]+)+([(:]|$)", str(exc)), str(exc)
        return "raised", str(exc)
    assert _finite(result), result
    return "returned", _canon(result)


_FINITE = st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False))
_COMPONENTS = st.one_of(_FINITE, _FINITE, _FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def _vector_likes(draw):
    """(raw values, form, source id): a vector of 0-4 components (often the
    library's 3), a 2-D array or a scalar, as a list, an ndarray or a
    FeatureVector, with a string or non-string id."""
    shape = draw(st.sampled_from(["vector", "vector", "vector", "matrix", "scalar"]))
    if shape == "vector":
        n = draw(st.sampled_from([0, 1, 2, _D, _D, _D, 4]))
        raw = draw(st.lists(_COMPONENTS, min_size=n, max_size=n))
    elif shape == "matrix":
        n = draw(st.integers(1, 2))
        raw = draw(st.lists(st.lists(_COMPONENTS, min_size=n, max_size=n), min_size=1, max_size=3))
    else:
        raw = draw(_COMPONENTS)
    form = draw(st.sampled_from(["list", "array", "vector"]))
    source_id = draw(st.one_of(st.text(max_size=3), st.text(max_size=3), st.integers(), st.none()))
    return raw, form, source_id


@given(drawn=_vector_likes())
@example(drawn=([1.7e308, -1.7e308, 1.7e308], "list", ""))  # w . x and |x| overflow
@example(drawn=([1e-320, 5e-324, 0.0], "array", ""))  # |x| underflows
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_consumer_named_error_or_finite_result(tmp_path, drawn):
    """Every function that reads a vector raises a named DriftSketchError or
    returns a finite result, whatever vector-like it is given; on a valid
    vector (1-D, finite), the list or array and ``FeatureVector(array)``
    give bit-identical results."""
    raw, form, source_id = drawn
    if form == "vector":
        try:
            given_v = FeatureVector(raw, source_id)
        except DataError as exc:
            event(f"built: {str(exc).partition('(')[0].partition(':')[0]}")
            return
    else:
        given_v = raw if form == "list" else np.array(raw, dtype=np.float64)
    arr = np.array(raw, dtype=np.float64)
    valid = arr.ndim == 1 and bool(np.isfinite(arr).all())
    event(f"{form}, {'valid' if valid else 'invalid'}")
    for name, call in _consumers(str(tmp_path / "e.emb")):
        got = _outcome(call, given_v)
        event(f"{name}: {got[0]}" + (f" {re.split('[(:]', got[1])[0]}" if got[0] == "raised" else ""))
        if valid and form != "vector":
            assert got == _outcome(call, FeatureVector(arr)), name
