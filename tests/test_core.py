import re
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftsketch
from driftsketch import ConfigError, DataError, ImageGrid, PipelineConfig, validate_image
from driftsketch.cli import _sections
from driftsketch.core import DriftSketchError, _decode, _first_draw, _parse_text, derive_seed
from driftsketch.core import seeded_rng
from driftsketch.extract import ExtractConfig
from driftsketch.head import AdamState, TrainConfig
from driftsketch.noiselab import NoiseSpec, SensitivityReport, SensitivityRow
from driftsketch.sketchlib import GateConfig, MinHashSignature, QuantConfig, SketchConfig
from driftsketch.sketchlib import GateReport, GateResult, SketchLibrary, TokenSet
from driftsketch.store import SplitPlan, _format_float
from driftsketch.stats import DriftReport, PeriodStats, StatsConfig

import reference_path


class TestValidateImage:
    def test_valid_grayscale(self):
        img = ImageGrid(width=2, height=2, channels=1, pixels=[0, 0.5, 1, 0.25])
        validate_image(img)  # no raise

    def test_pixel_count_mismatch(self):
        with pytest.raises(DataError, match="dimension-mismatch"):
            ImageGrid(width=2, height=2, channels=1, pixels=[0, 0.5, 1])

    def test_out_of_range_names_first_index(self):
        # the plain float, not NumPy 2's np.float64(...) scalar repr
        with pytest.raises(DataError, match=r"^out-of-range-pixel\(0\): value 1\.5$"):
            ImageGrid(width=2, height=2, channels=1, pixels=[1.5, 0.5, 1, 0.25])

    def test_non_finite_names_index(self):
        with pytest.raises(DataError, match=r"non-finite-pixel\(1\)"):
            ImageGrid(width=2, height=2, channels=1, pixels=[0, np.nan, 1, 0.25])

    @pytest.mark.parametrize(
        "pixels, error",
        [
            ([0.5, 1.5, np.nan, 0.25], r"non-finite-pixel\(2\)"),
            ([0.5, np.nan, 1.5, 0.25], r"non-finite-pixel\(1\)"),
            ([-0.5, 0.5, 1.0, np.inf], r"non-finite-pixel\(3\)"),
            ([0.5, 0.25, 1.0, -1e-300], r"out-of-range-pixel\(3\)"),
        ],
        ids=["nan-after-range", "nan-before-range", "inf-after-range", "tiny-negative"],
    )
    def test_non_finite_reported_before_out_of_range(self, pixels, error):
        # the first pass only asks whether every pixel lies in [0, 1]; the
        # error names the first non-finite pixel, else the first out of range
        with pytest.raises(DataError, match=error):
            ImageGrid(width=2, height=2, channels=1, pixels=pixels)

    @given(
        n=st.integers(1, 40),
        bad=st.lists(
            st.tuples(
                st.integers(0, 39),
                st.sampled_from([
                    np.nan, np.inf, -np.inf, -1e-300, -0.5, 1.0 + 2**-52, 2.0, -0.0,
                    5e-324, -5e-324, np.nextafter(1.0, 0.0), np.finfo(np.float64).max,
                    np.copysign(np.nan, -1.0),
                ]),
            ),
            max_size=4,
        ),
        negative_zeros=st.booleans(),
        layout=st.sampled_from(["float64", "float32", "int64", ">f8", "strided"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_as_reference(self, n, bad, negative_zeros, layout):
        """The bit-pattern screen, then the min/max test, accept and reject
        what the reference's one range mask does, with the same message: the
        first non-finite pixel, else the first out of range. -0.0 is in
        range, also in an image of nothing else. A stand-in with a grid's
        four fields is checked, since a grid checks itself when built, and
        its pixels may be of another dtype, byte order or stride, whose bits
        the screen must not read as float64's."""
        pixels = np.full(n, -0.0) if negative_zeros else np.linspace(0.0, 1.0, n)
        for idx, value in bad:
            pixels[idx % n] = value
        if layout == "strided":
            pixels = np.repeat(pixels, 2)[::2]
        elif layout == "int64":  # -2..2, of which 0 and 1 are in range
            pixels = np.clip(np.nan_to_num(pixels), -2, 2).astype(np.int64)
        elif layout != "float64":
            with np.errstate(over="ignore"):  # float64's largest value is inf as float32
                pixels = pixels.astype(layout)
        img = SimpleNamespace(width=n, height=1, channels=1, pixels=pixels)

        def verdict(check):
            try:
                check(img)
            except DataError as exc:
                return str(exc)
            return "valid"

        assert verdict(validate_image) == verdict(reference_path.validate_image)

    @pytest.mark.parametrize(
        "width, height, channels",
        [("2", 1, 1), (2.0, 1, 1), (True, 2, 1), (2, np.float64(1), 1), (2, 1, None)],
        ids=["str", "float", "bool", "numpy-float", "none"],
    )
    def test_dimensions_must_be_integers(self, width, height, channels):
        with pytest.raises(DataError, match="^dimension-mismatch: width, height and channels "
                                            "must be integers, got "):
            ImageGrid(width, height, channels, [0.0, 0.0])

    def test_numpy_integer_dimensions_accepted(self):
        img = ImageGrid(np.int64(2), np.int32(1), np.uint8(1), [0.0, 1.0])
        assert img.to_array().shape == (1, 2, 1)

    def test_negative_zero_accepted(self):
        validate_image(ImageGrid(width=2, height=1, channels=1, pixels=[-0.0, 1.0]))

    def test_bad_channel_count(self):
        with pytest.raises(DataError, match="channels"):
            ImageGrid(width=1, height=1, channels=2, pixels=[0.5, 0.5])

    @given(
        w=st.integers(1, 6),
        h=st.integers(1, 6),
        ch=st.sampled_from([1, 3]),
        fill=st.floats(-2, 2, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_never_crashes(self, w, h, ch, fill):
        try:
            ImageGrid(width=w, height=h, channels=ch, pixels=np.full(w * h * ch, fill))
        except DataError:
            pass

    def test_from_array_of_one_dimension(self):
        with pytest.raises(
            DataError, match="^dimension-mismatch: expected 2-D or 3-D array, got 1-D$"
        ):
            ImageGrid.from_array(np.zeros(4))

    def test_no_width(self):
        with pytest.raises(DataError, match="^dimension-mismatch: width=0, height=1$"):
            ImageGrid(0, 1, 1, [])

    def test_from_array_round_trip(self):
        arr = np.linspace(0, 1, 12).reshape(2, 2, 3)
        img = ImageGrid.from_array(arr)
        assert img.channels == 3 and img.width == 2 and img.height == 2
        np.testing.assert_array_equal(img.to_array(), arr)

    def test_pixels_are_read_only(self):
        img = ImageGrid.from_array(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0] = 1.0


class TestSeededRng:
    def test_same_seed_same_label_identical(self):
        a = seeded_rng(7, "a").integers(0, 2**63, 20)
        b = seeded_rng(7, "a").integers(0, 2**63, 20)
        np.testing.assert_array_equal(a, b)

    def test_label_separates_streams(self):
        a = seeded_rng(7, "a").integers(0, 2**63, 20)
        b = seeded_rng(7, "b").integers(0, 2**63, 20)
        assert (a != b).any()

    def test_seed_separates_streams(self):
        a = seeded_rng(7, "a").integers(0, 2**63, 20)
        b = seeded_rng(8, "a").integers(0, 2**63, 20)
        assert (a != b).any()

    @given(seed=st.integers(0, 2**64 - 1), label=st.text(max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_determinism_property(self, seed, label):
        a = seeded_rng(seed, label).integers(0, 2**63, 5)
        b = seeded_rng(seed, label).integers(0, 2**63, 5)
        np.testing.assert_array_equal(a, b)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ConfigError, match="invalid-seed"):
            seeded_rng(-1, "a")
        with pytest.raises(ConfigError, match="invalid-seed"):
            seeded_rng(2**64, "a")

    @given(seed=st.integers(0, 2**64 - 1), label=st.text(max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_first_draw_without_a_generator(self, seed, label):
        """`_first_draw` computes a stream's first 64-bit draw with Python
        integers; it is the generator's, for any seed and label."""
        want = seeded_rng(seed, label).integers(0, 2**64, dtype=np.uint64)
        assert _first_draw(seed, label) == int(want)

    def test_derive_seed_deterministic_and_labeled(self):
        assert derive_seed(3, "x") == derive_seed(3, "x")
        assert derive_seed(3, "x") != derive_seed(3, "y")
        assert derive_seed(3, "x") != derive_seed(4, "x")
        assert 0 <= derive_seed(3, "x") < 2**64


class TestPipelineConfig:
    def test_defaults_validate(self):
        cfg = PipelineConfig()
        assert cfg.schema_version == 1

    def test_dict_round_trip(self):
        cfg = PipelineConfig()
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_bad_schema_version_rejected(self):
        with pytest.raises(ConfigError, match="schema_version"):
            PipelineConfig(schema_version=2)

    def test_nested_validation_propagates(self):
        from driftsketch import QuantConfig

        with pytest.raises(ConfigError, match="bin_width"):
            PipelineConfig(quant=QuantConfig(bin_width=0.0))


# a valid record of every config-file section, plus a noise spec
_VALID = {name: cls() for name, (cls, _) in _sections(train=True).items()}
_VALID["noise"] = NoiseSpec(kind="gaussian", level=0.1)

# per record: a field, a value its constructor rejects, and the error it names
_BAD_FIELD = {
    "extract": ("grid", 0, "grid must be >= 1"),
    "quant": ("bin_width", 0.0, "bin_width must lie in"),
    "sketch": ("k", 0, "k must be >= 1"),
    "gate": ("j_alpha", 1.5, "j_alpha must lie in"),
    "stats": ("ks_alpha", 0.0, "ks_alpha must lie in"),
    "train": ("epochs", 0, "epochs must be >= 1"),
    "noise": ("level", -1.0, "sigma must lie in"),
}


_SIGNATURE = MinHashSignature([1, 2], 2, 0)
_LIBRARY = SketchLibrary.from_minima(["a", "b"], [[1, 2], [3, 4]], SketchConfig(k=2), QuantConfig(),
                                     dim=4)
_ROW = SensitivityRow(0.0, 1.0, 0.0, 1.0, 0.0)
_REPORT = SensitivityReport("gaussian", [_ROW])
_PERIOD = PeriodStats("p", 3, 0.1, 0.5, 0.2, 0, False)
_DRIFT = DriftReport("b", 0.05, [_PERIOD])
_VERDICT = GateResult("a", 0.5, "acceptable")

# every field a rule in its annotation checks: a valid record, the field, a
# value of another type, and a value of its type that the rule rejects
_RULED = [
    (ExtractConfig(), "grid", 4.0, 0),
    (ExtractConfig(), "hist_bins", "16", 1),
    (ExtractConfig(), "projection_dim", None, -1),
    (ExtractConfig(), "projection_seed", 1.5, -1),
    (QuantConfig(), "bin_width", "0.05", 0.0),
    (QuantConfig(), "origin", None, float("nan")),
    (QuantConfig(clamp_lo=0.0, clamp_hi=1.0), "clamp_lo", "0", float("nan")),
    (SketchConfig(), "k", 4.0, 0),
    (SketchConfig(), "hash_seed", "0", 2**64),
    (GateConfig(), "j_alpha", "0.5", 1.5),
    (GateConfig(), "aggregation", 1, "median"),
    (StatsConfig(), "ks_alpha", True, 1.0),
    (StatsConfig(), "cosine_mode", None, "pairwise"),
    (StatsConfig(), "pairwise_cap", 2.5, 0),
    (StatsConfig(), "seed", "1", -1),
    (TrainConfig(), "lr", "1e-3", 0.0),
    (TrainConfig(), "beta1", None, 1.0),
    (TrainConfig(), "beta2", "0.9", -0.1),
    (TrainConfig(), "epsilon", True, float("inf")),
    (TrainConfig(), "epochs", 20.0, 0),
    (TrainConfig(), "batch_size", "32", 0),
    (TrainConfig(), "seed", 0.0, 2**64),
    (AdamState.fresh(2), "m", ["a", "b"], [[0.0, 0.0]]),
    (AdamState.fresh(2), "v", [1j, 0.0], np.zeros((2, 1))),
    (AdamState.fresh(2), "t", 1.0, -1),
    (TokenSet([1, 2]), "tokens", ["a"], [[1, 2]]),
    (_SIGNATURE, "minima", ["a", "b"], [-1, 2]),
    (_SIGNATURE, "k", True, 0),
    (_SIGNATURE, "hash_seed", "0", -1),
    (_LIBRARY, "distinct_minima", [[1.5, 2], [3, 4]], [[-1, 2], [3, 4]]),
    (_LIBRARY, "row_index", [0.5, 1], [-1, 1]),
    (_LIBRARY, "dim", "4", 0),
    (NoiseSpec("gaussian", 0.1), "kind", 3, "cosmic"),
    (NoiseSpec("gaussian", 0.1), "seed", 1.5, -1),
    (NoiseSpec("gaussian", 0.1), "level", "0.1", -1.0),
    (NoiseSpec("salt_pepper", 0.1), "level", True, 1.5),
    (NoiseSpec("speckle", 0.1), "level", None, float("inf")),
    (NoiseSpec("poisson", 0.1), "level", [0.1], 2.0),
    (_REPORT, "noise_kind", None, "cosmic"),
    (_REPORT, "rows", 7, [_PERIOD]),
    (_ROW, "level", "0.1", float("inf")),
    (_ROW, "cosine_score", "1", 1.5),
    (_ROW, "ks_d", None, -0.1),
    (_ROW, "ks_p", True, float("-inf")),
    (_ROW, "anomaly_rate", "0", 3.0),
    (_PERIOD, "n_images", 3.0, 0),
    (_PERIOD, "ks_d", "0.1", float("nan")),
    (_PERIOD, "ks_p", True, 1.5),
    (_PERIOD, "cosine_score", None, -1.5),
    (_PERIOD, "gate_flag_count", 2.7, -1),
    (_DRIFT, "ks_alpha", "0.05", 7.0),
    (_DRIFT, "periods", None, [_ROW]),
    (_VERDICT, "score", "0.5", 7.0),
    (_VERDICT, "verdict", 3, "weird"),
    (GateReport("l", [_VERDICT]), "rows", None, [("a", 0.5, "acceptable")]),
    (SplitPlan(2, 0, {}), "n_groups", "3", 1),
    (SplitPlan(2, 0, {}), "seed", 0.5, 2**64),
]


def _ruled_id(good, field):
    """The test id of a `_RULED` case: a noise level's also names its kind."""
    kind = f"-{good.kind}" if isinstance(good, NoiseSpec) and field == "level" else ""
    return f"{type(good).__name__}.{field}{kind}"


# what the rule of each real field says of a value outside its interval; an
# interval is spelled one way, whichever record or field it rules
_INTERVALS = {
    "QuantConfig.bin_width": "bin_width must lie in (0, inf)",
    "QuantConfig.origin": "origin must lie in (-inf, inf)",
    "QuantConfig.clamp_lo": "clamp_lo must lie in (-inf, inf)",
    "GateConfig.j_alpha": "j_alpha must lie in [0, 1]",
    "StatsConfig.ks_alpha": "ks_alpha must lie in (0, 1)",
    "TrainConfig.lr": "lr must lie in (0, inf)",
    "TrainConfig.beta1": "beta1 must lie in [0, 1)",
    "TrainConfig.beta2": "beta2 must lie in [0, 1)",
    "TrainConfig.epsilon": "epsilon must lie in (0, inf)",
    "NoiseSpec.level-gaussian": "sigma must lie in [0, inf)",
    "NoiseSpec.level-salt_pepper": "fraction must lie in [0, 1]",
    "NoiseSpec.level-speckle": "variance must lie in [0, inf)",
    "NoiseSpec.level-poisson": "level must lie in [0, 1]",
    "SensitivityRow.level": "level must lie in (-inf, inf)",
    "SensitivityRow.cosine_score": "cosine_score must lie in [-1, 1]",
    "SensitivityRow.ks_d": "ks_d must lie in [0, 1]",
    "SensitivityRow.ks_p": "ks_p must lie in [0, 1]",
    "SensitivityRow.anomaly_rate": "anomaly_rate must lie in [0, 1]",
    "PeriodStats.ks_d": "ks_d must lie in [0, 1]",
    "PeriodStats.ks_p": "ks_p must lie in [0, 1]",
    "PeriodStats.cosine_score": "cosine_score must lie in [-1, 1]",
    "DriftReport.ks_alpha": "ks_alpha must lie in (0, 1)",
    "GateResult.score": "score must lie in [0, 1]",
}


class TestValidByConstruction:
    @pytest.mark.parametrize(
        "good, field, mistyped, ruled_out",
        _RULED,
        ids=[_ruled_id(good, field) for good, field, *_ in _RULED],
    )
    def test_one_text_per_fault(self, good, field, mistyped, ruled_out):
        """A bad value of a ruled field raises one error, class and text,
        whether the record is built, replaced or decoded from its JSON
        object (arrays as lists): one check path names each fault. A real
        outside its interval is named in that interval's one spelling."""
        cls, parts = type(good), {f.name: getattr(good, f.name) for f in fields(good)}
        obj = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in parts.items()}
        for bad in (mistyped, ruled_out):
            errors = []
            for build in (
                lambda: cls(**{**parts, field: bad}),
                lambda: replace(good, **{field: bad}),
                lambda: _decode(cls, {**obj, field: bad}),
            ):
                with pytest.raises(DriftSketchError) as info:
                    build()
                errors.append((type(info.value), str(info.value)))
            assert errors[0] == errors[1] == errors[2], errors
        if _ruled_id(good, field) in _INTERVALS:
            text = f"config-invalid: {_INTERVALS[_ruled_id(good, field)]}, got {ruled_out}"
            assert errors[0] == (ConfigError, text)

    @pytest.mark.parametrize("name", sorted(_VALID))
    def test_bad_value_rejected_by_constructor_and_replace(self, name):
        good = _VALID[name]
        field, value, message = _BAD_FIELD[name]
        with pytest.raises(ConfigError, match=message):
            type(good)(**{**asdict(good), field: value})
        with pytest.raises(ConfigError, match=message):
            replace(good, **{field: value})

    @pytest.mark.parametrize(
        "cls, field",
        [
            (SketchConfig, "hash_seed"),
            (ExtractConfig, "projection_seed"),
            (StatsConfig, "seed"),
            (TrainConfig, "seed"),
        ],
    )
    @pytest.mark.parametrize("seed", [-1, 1.5, 2**64, "0", None])
    def test_bad_seed_rejected(self, cls, field, seed):
        """A seed of another type reads as the decoder reads it; an integer
        out of range is an invalid seed."""
        if isinstance(seed, int):
            error = rf"^invalid-seed: expected integer in \[0, 2\^64\), got {seed}$"
        else:
            error = f"^config-invalid: {field} must be int, got {re.escape(repr(seed))}$"
        with pytest.raises(ConfigError, match=error):
            cls(**{field: seed})

    @pytest.mark.parametrize(
        "cls, field",
        [
            (SketchConfig, "k"),
            (ExtractConfig, "grid"),
            (ExtractConfig, "hist_bins"),
            (ExtractConfig, "projection_dim"),
            (StatsConfig, "pairwise_cap"),
            (TrainConfig, "epochs"),
            (TrainConfig, "batch_size"),
        ],
    )
    @pytest.mark.parametrize("value", [4.0, float("nan"), float("inf"), "4", None])
    def test_non_integer_count_rejected(self, cls, field, value):
        error = f"^config-invalid: {field} must be int, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=error):
            cls(**{field: value})

    @pytest.mark.parametrize(
        "cls, field",
        [
            (SketchConfig, "k"),
            (ExtractConfig, "grid"),
            (TrainConfig, "epochs"),
            (SketchConfig, "hash_seed"),
            (StatsConfig, "seed"),
            (partial(NoiseSpec, "gaussian", 0.1), "seed"),
        ],
        ids=["k", "grid", "epochs", "hash_seed", "stats-seed", "noise-seed"],
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_count_or_seed_rejected(self, cls, field, flag):
        with pytest.raises(ConfigError, match=f"^config-invalid: {field} must be int, got {flag}$"):
            cls(**{field: flag})

    def test_integer_counts_and_seeds_accepted(self):
        assert SketchConfig(k=np.int64(8), hash_seed=np.uint64(2**64 - 1)).k == 8

    def test_no_public_class_has_validate(self):
        classes = [obj for obj in vars(driftsketch).values() if isinstance(obj, type)]
        assert [c.__name__ for c in classes if hasattr(c, "validate")] == []

    @pytest.mark.parametrize(
        "make, field",
        [
            (QuantConfig, "bin_width"),
            (QuantConfig, "origin"),
            (partial(QuantConfig, clamp_hi=1.0), "clamp_lo"),
            (partial(QuantConfig, clamp_lo=0.0), "clamp_hi"),
            (GateConfig, "j_alpha"),
            (StatsConfig, "ks_alpha"),
            (TrainConfig, "lr"),
            (TrainConfig, "beta1"),
            (TrainConfig, "beta2"),
            (TrainConfig, "epsilon"),
            (partial(NoiseSpec, "gaussian"), "level"),
            (PipelineConfig, "schema_version"),
        ],
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_float_field_or_schema_version_rejected(self, make, field, flag):
        """A bool is not a number, as it is not a count (True == 1 and
        False == 0 passed every range check these fields have)."""
        with pytest.raises(ConfigError, match=rf"{field} must|sigma must be float, got {flag}"):
            make(**{field: flag})


@dataclass(frozen=True)
class _Inner:
    n: int
    x: float


@dataclass(frozen=True)
class _Outer:
    name: str
    flag: bool
    items: list
    table: dict
    low: float | None
    inner: _Inner
    anything: object


_GOOD = {
    "name": "a",
    "flag": False,
    "items": [1, "b"],
    "table": {"k": [2]},
    "low": None,
    "inner": {"n": 3, "x": 0},
    "anything": [None],
}


class TestDecode:
    """``core._decode``: a JSON object to a dataclass, typed by its annotations."""

    def test_each_annotation_takes_its_json_type(self):
        obj = _decode(_Outer, _GOOD)
        assert obj == _Outer("a", False, [1, "b"], {"k": [2]}, None, _Inner(3, 0.0), [None])
        assert type(obj.inner.x) is float

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("inner", "n"), True, "n must be int, got True"),
            (("inner", "n"), 2.9, "n must be int, got 2.9"),
            (("inner", "n"), 3.0, "n must be int, got 3.0"),
            (("inner", "n"), "3", "n must be int, got '3'"),
            (("inner", "x"), True, "x must be float, got True"),
            (("inner", "x"), "0.5", "x must be float, got '0.5'"),
            (("inner", "x"), None, "x must be float, got None"),
            # an integer that no whole float is written as
            (("inner", "x"), 10**17, "x must be float, got 100000000000000000"),
            (("inner", "x"), 2**53 + 1, "x must be float, got 9007199254740993"),
            (("name",), 7, "name must be str, got 7"),
            (("flag",), 0, "flag must be bool, got 0"),
            (("items",), {"a": 1}, "items must be list"),
            (("table",), [], "table must be dict"),
            (("low",), "none", "low must be float or null, got 'none'"),
            (("inner",), [3, 0.0], "inner must be _Inner"),
        ],
    )
    def test_a_value_of_another_type_is_named(self, path, value, message):
        obj = {**_GOOD, "inner": dict(_GOOD["inner"])}
        target = obj if len(path) == 1 else obj[path[0]]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=f"^config-invalid: {message}"):
            _decode(_Outer, obj)

    def test_integers_and_floats_in_a_float_field(self):
        """A float field takes the integers a whole float is written as, and
        each prints back as the same digits."""
        for value in (0, -5, 2**53, 10**16, 99_999_999_999_999_984, 1e300, -0.0):
            x = _decode(_Inner, {"n": 1, "x": value}).x
            assert type(x) is float and x == value
            assert isinstance(value, float) or _format_float(x) == str(value)

    def test_missing_and_unknown_keys(self):
        with pytest.raises(ConfigError, match="^config-invalid: 'x'$"):
            _decode(_Inner, {"n": 1})
        with pytest.raises(ConfigError, match="^config-invalid: unknown key 'y'$"):
            _decode(_Inner, {"n": 1, "x": 0.5, "y": 2})
        with pytest.raises(ConfigError, match="^config-invalid: expected an object, got"):
            _decode(_Inner, [1, 0.5])

    def test_given_fields_complete_the_object(self):
        assert _decode(_Inner, {"n": 1}, x=0.25) == _Inner(1, 0.25)
        with pytest.raises(ConfigError, match="unknown key 'x'"):
            _decode(_Inner, {"n": 1, "x": 0.5}, x=0.25)

    def test_the_class_checks_its_ranges(self):
        with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
            _decode(SketchConfig, {"k": 0, "hash_seed": 0})


class TestConfigFromDict:
    def test_mistyped_value_is_a_config_error(self):
        """It raised a raw TypeError from the range check."""
        with pytest.raises(ConfigError, match="bin_width must be float, got '0.1'"):
            PipelineConfig.from_dict({"quant": {"bin_width": "0.1"}})

    def test_missing_sections_default_and_other_keys_are_ignored(self):
        quant = asdict(QuantConfig(bin_width=0.25))
        cfg = PipelineConfig.from_dict({"quant": quant, "seed": 3, "train": {"lr": 1}})
        assert cfg == PipelineConfig(quant=QuantConfig(bin_width=0.25))

    @pytest.mark.parametrize("d", [None, [1], "quant"])
    def test_a_config_that_is_not_an_object(self, d):
        with pytest.raises(ConfigError, match="^config-invalid: expected an object, got "):
            PipelineConfig.from_dict(d)

    def test_a_section_holds_every_field(self):
        with pytest.raises(ConfigError, match="^config-invalid: 'origin'$"):
            PipelineConfig.from_dict({"quant": {"bin_width": 0.25}})
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            PipelineConfig.from_dict({"gate": {"j_alpha": 0.5, "aggregation": "max", "bogus": 1}})


class TestParseText:
    """One annotation table for config-file values and CSV cells."""

    @pytest.mark.parametrize(
        "hint, text, value",
        [
            (int, "12", 12),
            (float, "0.5", 0.5),
            (str, " a ", " a "),
            (bool, "TRUE", True),
            (bool, "0", False),
            (float | None, "None", None),
            (float | None, "-1", -1.0),
            (str, "é_١٢", "é_١٢"),
            (float, "1e-3", 0.001),
            (int, "-7", -7),
        ],
    )
    def test_parsed_by_annotation(self, hint, text, value):
        assert _parse_text(hint, text, "key") == value

    # a number is ASCII text without '_': int() and float() alone read '1_28'
    # as 128, '0_05' as 5.0, and '١٢' (Arabic-Indic) or '１２' (fullwidth) as 12
    @pytest.mark.parametrize(
        "hint, text",
        [(int, "4.0"), (float, "none"), (bool, "yes"), (int, "1_28"), (float, "0_05"),
         (float | None, "1_0"), (int, "١٢"), (float, "١.٥"), (int, "１２")],
    )
    def test_unparseable_text_is_named(self, hint, text):
        message = re.escape(f"config-invalid: cannot parse key = {text!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            _parse_text(hint, text, "key")
