"""Every record that holds an array owns it (``core._held``): the array is
copied unless it is sealed (read-only down to its owner), then held
read-only, so no caller can change a built record, and a caller's array is
never shared or changed. The records that hold integers take integers only,
and every record checks the shapes of what it holds."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from driftsketch import (
    AdamState,
    ConfigError,
    DataError,
    DriftSketchError,
    FeatureVector,
    HeadModel,
    ImageGrid,
    MinHashSignature,
    QuantConfig,
    SketchConfig,
    SketchLibrary,
    TokenSet,
    TrainConfig,
    bce_gradient,
    cosine,
    load_library,
    predict,
    save_library,
    train_head,
)
from driftsketch import extract, noiselab, store
from driftsketch.extract import ExtractConfig, extract_builtin
from synthcorpus import corpus

_SKETCH, _QUANT = SketchConfig(k=4, hash_seed=3), QuantConfig()


class TestRecordsOwnTheirArrays:
    """In earlier releases each of these shared or changed the caller's array."""

    def test_image_grid_copies_a_writable_array(self):
        a = np.zeros(4)
        g = ImageGrid(2, 2, 1, a)
        a[0] = np.nan
        assert g.pixels.tolist() == [0.0, 0.0, 0.0, 0.0] and a.flags.writeable

    def test_image_grid_from_array_copies(self):
        a = np.zeros((2, 2))
        g = ImageGrid.from_array(a)
        a[0, 0] = 5.0
        assert g.pixels.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_head_model_copies_a_writable_array(self):
        w = np.ones(2)
        model = HeadModel(w=w, b=0.0)
        w[0] = np.inf
        assert predict(model, [1.0, 1.0]) == predict(HeadModel(w=[1.0, 1.0], b=0.0), [1.0, 1.0])
        assert model.w.tolist() == [1.0, 1.0]

    def test_signature_leaves_the_callers_flag_alone(self):
        a = np.arange(4, dtype=np.uint64)
        sig = MinHashSignature(a, 4, 0)
        a[0] = 9
        assert a.flags.writeable and not sig.minima.flags.writeable
        assert sig.minima.tolist() == [0, 1, 2, 3]


class TestIntegerArraysTakeIntegersOnly:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: MinHashSignature([1.5], 1, 0), DataError, "^value-out-of-range: minima"),
            (lambda: MinHashSignature([-1], 1, 0), DataError, "^value-out-of-range: minima"),
            (lambda: MinHashSignature([2**64], 1, 0), DataError, "^value-out-of-range: minima"),
            (lambda: MinHashSignature([1], True, 0), ConfigError,
             "^config-invalid: k must be int, got True$"),
            (lambda: MinHashSignature([1], 1, -1), ConfigError, "^invalid-seed"),
            (lambda: MinHashSignature([1, 2], 1, 0), DataError, r"^dimension-mismatch"),
            (lambda: TokenSet([1.5]), DataError, "^value-out-of-range: TokenSet.tokens"),
            (lambda: TokenSet([-1]), DataError, "^value-out-of-range: TokenSet.tokens"),
            (lambda: TokenSet([[1, 2]]), DataError, "^dimension-mismatch"),
            (lambda: TokenSet(["a"]), DataError, "^value-out-of-range"),
        ],
        ids=["signature-float", "signature-negative", "signature-2**64", "k-bool",
             "seed-negative", "signature-length", "tokens-float", "tokens-negative",
             "tokens-2d", "tokens-text"],
    )
    def test_rejected_when_built(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_integers_either_side_of_2_63_are_held_exactly(self):
        # NumPy reads such a list as float64; the record must not round them
        values = [0, 2**63 + 1, 2**64 - 1]
        assert TokenSet(values).tokens.tolist() == values
        assert MinHashSignature(values, 3, 0).minima.tolist() == values


class TestSketchLibraryChecksItself:
    def test_no_empty_library(self):
        with pytest.raises(TypeError):
            SketchLibrary()

    @pytest.mark.parametrize(
        "ids, minima, error, message",
        [
            ([1, 2], [[1, 2, 3, 4], [5, 6, 7, 8]], DataError, "^malformed-id: 1 is not a string$"),
            (["a"], [[1.5, 2, 3, 4]], DataError, "^value-out-of-range: minima"),
            (["a"], [[-1, 2, 3, 4]], DataError, "^value-out-of-range: minima"),
            (["a", "a"], [[1, 2, 3, 4], [1, 2, 3, 4]], DataError, "^duplicate-source-id"),
            (["a", "b"], [[1, 2, 3, 4]], DataError,
             r"^dimension-mismatch: minima of shape \(1, 4\) for 2 ids and k=4$"),
            ([], [[1, 2, 3, 4]], DataError, r"^dimension-mismatch"),
        ],
        ids=["int-ids", "float-minima", "negative-minima", "duplicate-ids", "fewer-rows",
             "rows-without-ids"],
    )
    def test_from_minima_rejects(self, ids, minima, error, message):
        with pytest.raises(error, match=message):
            SketchLibrary.from_minima(ids, minima, _SKETCH, _QUANT)

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (dict(sketch_config=_QUANT), ConfigError, "sketch_config must be SketchConfig"),
            (dict(quant_config=None), ConfigError, "quant_config must be QuantConfig"),
            (dict(extract_fingerprint=5), ConfigError, "extract_fingerprint must be str"),
            (dict(dim=0), ConfigError, "dim must be >= 1"),
            (dict(row_index=[0, 0, 1]), DataError, "^malformed-payload"),
            (dict(row_index=[0, -1]), DataError, "^value-out-of-range: row_index"),
            (dict(distinct_minima=[[1, 2, 3, 4], [1, 2, 3, 4]]), DataError, "repeat a row"),
        ],
        ids=["sketch-type", "quant-type", "fingerprint-type", "dim-zero", "index-length",
             "index-negative", "repeated-row"],
    )
    def test_constructor_rejects(self, change, error, message):
        parts = dict(ids=("a", "b"), distinct_minima=[[1, 2, 3, 4], [5, 6, 7, 8]],
                     row_index=[0, 1], sketch_config=_SKETCH, quant_config=_QUANT)
        with pytest.raises(error, match=message):
            SketchLibrary(**{**parts, **change})

    def test_identity_equality_and_short_repr(self):
        rows = [[1, 2, 3, 4]]
        a = SketchLibrary.from_minima(["a"], rows, _SKETCH, _QUANT)
        b = SketchLibrary.from_minima(["a"], rows, _SKETCH, _QUANT)
        assert a == a and a != b and len({a, b}) == 2
        assert repr(a).startswith("<driftsketch.sketchlib.SketchLibrary object at ")


class TestAdamStateChecksItself:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: AdamState(m=np.zeros(2), v=np.zeros(2), t=-5), ConfigError, "t must be >= 0"),
            (lambda: AdamState(m=np.zeros(2), v=np.zeros(2), t=1.0), ConfigError,
             "^config-invalid: t must be int, got 1.0$"),
            (lambda: AdamState(m=np.zeros(2), v=np.zeros(3)), DataError, "^dimension-mismatch"),
            (lambda: AdamState(m=np.zeros((2, 1)), v=np.zeros((2, 1))), DataError,
             "^dimension-mismatch"),
            (lambda: AdamState(m=["a"], v=[0.0]), DataError, r"^non-real-value: AdamState\.m"),
        ],
        ids=["t-negative", "t-float", "lengths-differ", "not-vectors", "text"],
    )
    def test_rejected_when_built(self, build, error, message):
        with pytest.raises(error, match=message):
            build()


class TestVectorsHoldRealsOnly:
    """Each raised a raw NumPy error, or dropped an imaginary part with a
    ComplexWarning, in earlier releases."""

    @pytest.mark.parametrize(
        "values",
        [["a"], [[1.0], [1.0, 2.0]], [1 + 2j], np.array([1 + 2j, 3.0])],
        ids=["text", "ragged", "complex-list", "complex-array"],
    )
    def test_feature_vector_names_its_id(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^non-real-value\(img7\): "):
                FeatureVector(values, "img7")

    def test_consumer_names_the_argument(self):
        with pytest.raises(DataError, match="^non-real-value: b: "):
            cosine([1.0, 2.0], [1 + 2j, 1.0])


class TestLabelsAreZeroOrOne:
    """`train_head` trained on 0.5 as 0, `bce_gradient` took 7, and a NaN
    label raised a raw ValueError, in earlier releases."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: train_head([([1.0], 0.5), ([2.0], 1)], TrainConfig(epochs=1)),
            lambda: train_head([([1.0], 0), ([2.0], float("nan"))], TrainConfig(epochs=1)),
            lambda: bce_gradient(HeadModel(w=[1.0], b=0.0), [([1.0], 7)]),
            lambda: bce_gradient(HeadModel(w=[1.0], b=0.0), [([1.0], "1")]),
        ],
        ids=["train-half", "train-nan", "gradient-seven", "gradient-text"],
    )
    def test_named_error(self, call):
        message = r"^invalid-label: sample \d has label .*, expected 0 or 1$"
        with pytest.raises(DataError, match=message):
            call()

    def test_integer_and_float_labels_train_alike(self):
        rows = [([0.2, 0.9], 0), ([0.8, 0.1], 1), ([0.3, 0.7], 0), ([0.9, 0.2], 1)]
        cfg = TrainConfig(lr=0.05, epochs=2, batch_size=2)
        model, curve = train_head(rows, cfg)
        again, again_curve = train_head([(x, float(y)) for x, y in rows], cfg)
        assert model.w.tobytes() == again.w.tobytes() and curve == again_curve


class TestNoPerImageCopy:
    """The request path hands each record the array its producer made, so
    adding a copy on the way fails here."""

    @staticmethod
    def _spy(monkeypatch, module, name, field):
        """Replace `module.name` by a recorder of the `field` array each call passes."""
        real, seen = getattr(module, name), []

        def spy(*args, **kwargs):
            seen.append(kwargs[field])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return seen

    def test_load_image_grid_holds_the_decoded_array(self, tmp_path, monkeypatch):
        path = str(tmp_path / "a.pgm")
        store.save_image(corpus(2, 1, "own")[0], path)
        made = self._spy(monkeypatch, store, "ImageGrid", "pixels")
        img = store.load_image(path)
        assert np.shares_memory(img.pixels, made[0])

    @pytest.mark.parametrize("kind, level", [("gaussian", 0.1), ("salt_pepper", 0.2),
                                             ("speckle", 0.1), ("poisson", 0.5)])
    def test_noised_grid_holds_the_noised_array(self, monkeypatch, kind, level):
        img = corpus(2, 1, "own")[0]
        made = self._spy(monkeypatch, noiselab, "ImageGrid", "pixels")
        noised = noiselab.apply_noise(img, noiselab.NoiseSpec(kind, level, 4))
        assert np.shares_memory(noised.pixels, made[0])

    @pytest.mark.parametrize("cfg", [ExtractConfig(), ExtractConfig(projection_dim=8)],
                             ids=["raw", "projected"])
    def test_extracted_vector_holds_the_extractors_array(self, monkeypatch, cfg):
        made = self._spy(monkeypatch, extract, "FeatureVector", "values")
        v = extract_builtin(corpus(2, 1, "own")[0], cfg, "a")
        assert np.shares_memory(v.values, made[0])


# -- every record that holds an array, built from a caller's array --------

def _records(a, b):
    """{record name: a builder of that record from the caller's arrays a and
    b}. `a` is float64 of at least 4 values in [0, 1], `b` uint64 with
    distinct rows of 4."""
    ids = [f"i{j}" for j in range(b.shape[0])]
    return {
        "ImageGrid": lambda: ImageGrid(a.size, 1, 1, a),
        "FeatureVector": lambda: FeatureVector(a, "x"),
        "HeadModel": lambda: HeadModel(w=a, b=0.0),
        "AdamState": lambda: AdamState(m=a, v=a, t=1),
        "MinHashSignature": lambda: MinHashSignature(b[0], b.shape[1], 0),
        "TokenSet": lambda: TokenSet(b[0]),
        "SketchLibrary.from_minima": lambda: SketchLibrary.from_minima(ids, b, _SKETCH, _QUANT),
        "SketchLibrary": lambda: SketchLibrary(ids, b, np.arange(b.shape[0]), _SKETCH, _QUANT),
    }


_ARRAYS = {
    "ImageGrid": ("pixels",),
    "FeatureVector": ("values",),
    "HeadModel": ("w",),
    "AdamState": ("m", "v"),
    "MinHashSignature": ("minima",),
    "TokenSet": ("tokens",),
    "SketchLibrary.from_minima": ("distinct_minima", "row_index"),
    "SketchLibrary": ("distinct_minima", "row_index"),
}


@st.composite
def _caller_arrays(draw):
    """(a, b, layout): the caller's arrays, each owned, a strided view, a
    transposed copy (Fortran order) or read-only through a writable base."""
    n = draw(st.integers(4, 8))
    a = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    rows = draw(st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4),
                         min_size=1, max_size=3, unique_by=tuple))
    b = np.array(rows, dtype=np.uint64)
    layout = draw(st.sampled_from(["owned", "strided", "fortran", "read-only view"]))
    if layout == "strided":
        a = np.repeat(a, 2)[::2]
        b = np.repeat(b, 2, axis=1)[:, ::2]
    elif layout == "fortran":
        b = np.asfortranarray(b)
    elif layout == "read-only view":
        a, b = a[:], b[:]
        a.flags.writeable = b.flags.writeable = False
    return a, b, layout


@given(drawn=_caller_arrays(), name=st.sampled_from(sorted(_ARRAYS)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_writing_to_the_callers_array_never_changes_a_record(drawn, name):
    """Whatever array a caller builds a record from, the record's arrays are
    read-only and its own, and the caller's array keeps its flag."""
    a, b, layout = drawn
    event(f"{name}, {layout}")
    flags = a.flags.writeable, b.flags.writeable
    record = _records(a, b)[name]()
    held = [getattr(record, field) for field in _ARRAYS[name]]
    before = [arr.copy() for arr in held]
    assert (a.flags.writeable, b.flags.writeable) == flags
    assert not any(arr.flags.writeable for arr in held)
    for caller in (a, b):
        owner = caller
        while owner.base is not None:
            owner = owner.base
        owner.flags.writeable = True  # the owner of the buffer can always write it
        owner[...] = np.nan if owner.dtype.kind == "f" else 7
    for arr, was in zip(held, before):
        assert arr.tobytes() == was.tobytes()


_ID = st.one_of(st.text(max_size=4), st.text(max_size=4), st.integers(0, 3))
_MINIMUM = st.one_of(
    st.integers(0, 2**64 - 1), st.integers(0, 3), st.integers(0, 3),
    st.integers(-3, -1), st.just(2**64), st.floats(0.0, 4.0),
)


@given(
    ids=st.lists(_ID, max_size=5),
    minima=st.data(),
    k=st.integers(1, 4),
    dim=st.one_of(st.none(), st.integers(1, 9)),
)
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_library_from_minima_saves_and_loads_back(ids, minima, k, dim):
    """A library that builds is one its file carries exactly: same ids,
    rows, index and configs (a v4 file keeps the dimension too)."""
    rows = minima.draw(st.lists(st.lists(_MINIMUM, min_size=k, max_size=k),
                                min_size=len(ids), max_size=len(ids)))
    sketch = SketchConfig(k=k, hash_seed=1)
    try:
        lib = SketchLibrary.from_minima(ids, rows, sketch, _QUANT, "fp", dim)
    except DriftSketchError as exc:
        event(f"refused: {str(exc).partition(':')[0]}")
        return
    event(f"built, m={len(lib)}, u={lib.distinct_minima.shape[0]}")
    again = load_library(save_library(lib))
    assert again.ids == lib.ids and again.ids == tuple(ids)
    assert again.distinct_minima.tobytes() == lib.distinct_minima.tobytes()
    assert again.distinct_minima.shape == lib.distinct_minima.shape
    assert again.row_index.tolist() == lib.row_index.tolist()
    assert again.minima_matrix().tolist() == [[int(x) for x in row] for row in rows]
    assert (again.sketch_config, again.quant_config) == (lib.sketch_config, lib.quant_config)
    assert (again.extract_fingerprint, again.dim) == (lib.extract_fingerprint, lib.dim)
