from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftsketch
from driftsketch import ConfigError, DataError, ImageGrid, PipelineConfig, validate_image
from driftsketch.cli import _SECTIONS
from driftsketch.core import derive_seed, seeded_rng
from driftsketch.extract import ExtractConfig
from driftsketch.head import TrainConfig
from driftsketch.noiselab import NoiseSpec
from driftsketch.sketchlib import SketchConfig
from driftsketch.stats import StatsConfig

import reference_path


class TestValidateImage:
    def test_valid_grayscale(self):
        img = ImageGrid(width=2, height=2, channels=1, pixels=[0, 0.5, 1, 0.25])
        validate_image(img)  # no raise

    def test_pixel_count_mismatch(self):
        img = ImageGrid(width=2, height=2, channels=1, pixels=[0, 0.5, 1])
        with pytest.raises(DataError, match="dimension-mismatch"):
            validate_image(img)

    def test_out_of_range_names_first_index(self):
        img = ImageGrid(width=2, height=2, channels=1, pixels=[1.5, 0.5, 1, 0.25])
        # the plain float, not NumPy 2's np.float64(...) scalar repr
        with pytest.raises(DataError, match=r"^out-of-range-pixel\(0\): value 1\.5$"):
            validate_image(img)

    def test_non_finite_names_index(self):
        img = ImageGrid(width=2, height=2, channels=1, pixels=[0, np.nan, 1, 0.25])
        with pytest.raises(DataError, match=r"non-finite-pixel\(1\)"):
            validate_image(img)

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
        img = ImageGrid(width=2, height=2, channels=1, pixels=pixels)
        with pytest.raises(DataError, match=error):
            validate_image(img)

    @given(
        n=st.integers(1, 40),
        bad=st.lists(
            st.tuples(
                st.integers(0, 39),
                st.sampled_from([np.nan, np.inf, -np.inf, -1e-300, -0.5, 1.0 + 2**-52, 2.0, -0.0]),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_verdict_as_reference(self, n, bad):
        """The min/max screen accepts and rejects what the reference's one
        range mask does, with the same message: the first non-finite pixel,
        else the first out of range. -0.0 is in range."""
        pixels = np.linspace(0.0, 1.0, n)
        for idx, value in bad:
            pixels[idx % n] = value
        img = ImageGrid(width=n, height=1, channels=1, pixels=pixels)

        def verdict(check):
            try:
                check(img)
            except DataError as exc:
                return str(exc)
            return "valid"

        assert verdict(validate_image) == verdict(reference_path.validate_image)

    def test_negative_zero_accepted(self):
        validate_image(ImageGrid(width=2, height=1, channels=1, pixels=[-0.0, 1.0]))

    def test_bad_channel_count(self):
        img = ImageGrid(width=1, height=1, channels=2, pixels=[0.5, 0.5])
        with pytest.raises(DataError, match="channels"):
            validate_image(img)

    @given(
        w=st.integers(1, 6),
        h=st.integers(1, 6),
        ch=st.sampled_from([1, 3]),
        fill=st.floats(-2, 2, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_never_crashes(self, w, h, ch, fill):
        img = ImageGrid(width=w, height=h, channels=ch, pixels=np.full(w * h * ch, fill))
        try:
            validate_image(img)
        except DataError:
            pass

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
_VALID = {name: cls() for name, (cls, _) in _SECTIONS.items()}
_VALID["noise"] = NoiseSpec(kind="gaussian", level=0.1)

# per record: a field, a value its constructor rejects, and the error it names
_BAD_FIELD = {
    "extract": ("grid", 0, "grid must be >= 1"),
    "quant": ("bin_width", 0.0, "bin_width must lie in"),
    "sketch": ("k", 0, "k must be >= 1"),
    "gate": ("j_alpha", 1.5, "j_alpha must lie in"),
    "stats": ("ks_alpha", 0.0, "ks_alpha must lie in"),
    "train": ("epochs", 0, "epochs must be >= 1"),
    "noise": ("level", -1.0, "invalid-sigma"),
}


class TestValidByConstruction:
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
        with pytest.raises(ConfigError, match="invalid-seed"):
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
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            cls(**{field: value})

    @pytest.mark.parametrize(
        "cls, field, error",
        [
            (SketchConfig, "k", "config-invalid: k must be an integer"),
            (ExtractConfig, "grid", "config-invalid: grid must be an integer"),
            (TrainConfig, "epochs", "config-invalid: epochs must be an integer"),
            (SketchConfig, "hash_seed", "invalid-seed"),
            (StatsConfig, "seed", "invalid-seed"),
            (partial(NoiseSpec, "gaussian", 0.1), "seed", "invalid-seed"),
        ],
        ids=["k", "grid", "epochs", "hash_seed", "stats-seed", "noise-seed"],
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_count_or_seed_rejected(self, cls, field, error, flag):
        with pytest.raises(ConfigError, match=error):
            cls(**{field: flag})

    def test_integer_counts_and_seeds_accepted(self):
        assert SketchConfig(k=np.int64(8), hash_seed=np.uint64(2**64 - 1)).k == 8

    def test_no_public_class_has_validate(self):
        classes = [obj for obj in vars(driftsketch).values() if isinstance(obj, type)]
        assert [c.__name__ for c in classes if hasattr(c, "validate")] == []
