import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference_path
from driftsketch import (
    ConfigError,
    DataError,
    FeatureVector,
    ImageGrid,
    NoiseSpec,
    PipelineConfig,
    apply_noise,
    extract_batch,
    gaussian_noise,
    poisson_noise,
    salt_pepper,
    sensitivity_sweep,
    speckle,
    validate_image,
)
from driftsketch.core import seeded_rng
from driftsketch.extract import ExtractConfig
from driftsketch.noiselab import NOISE_KINDS, POISSON_BASE, SensitivityReport, SensitivityRow
from driftsketch.store import encode_report
from synthcorpus import corpus, rgb_corpus, spearman


def constant_image(value, size=64):
    return ImageGrid.from_array(np.full((size, size), value))


class TestGaussianNoise:
    def test_zero_sigma_identity(self):
        img = constant_image(0.3)
        out = gaussian_noise(img, 0.0, seed=1)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_deterministic(self):
        img = constant_image(0.5)
        a = gaussian_noise(img, 0.1, seed=9)
        b = gaussian_noise(img, 0.1, seed=9)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        c = gaussian_noise(img, 0.1, seed=10)
        assert (a.pixels != c.pixels).any()

    def test_moments_on_constant_image(self):
        out = gaussian_noise(constant_image(0.5, 64), 0.1, seed=2)
        assert abs(out.pixels.mean() - 0.5) < 0.02
        assert abs(out.pixels.std() - 0.1) < 0.02

    def test_output_valid(self):
        out = gaussian_noise(constant_image(0.9, 32), 0.5, seed=3)
        validate_image(out)

    def test_negative_sigma_rejected(self):
        error = r"^config-invalid: sigma must lie in \[0, inf\), got -0.1$"
        with pytest.raises(ConfigError, match=error):
            gaussian_noise(constant_image(0.5), -0.1)

    def test_huge_sigma_clamps_without_warning(self):
        """At sigma 1e308 most draws overflow to +-inf, which the clamp takes
        to 1 or 0; the suite turns a stray overflow warning into an error."""
        img = constant_image(0.5, 16)
        out = gaussian_noise(img, 1e308, seed=4)
        draws = seeded_rng(4, "noise.gaussian").standard_normal(img.pixels.size)
        np.testing.assert_array_equal(out.pixels, np.sign(draws) / 2 + 0.5)
        levels = [0.0, 0.1, 1e308]
        imgs = corpus(44, 4, "sweep-huge")
        report = sensitivity_sweep(
            extract_batch(imgs, ExtractConfig()), imgs, "gaussian", levels, PipelineConfig(), seed=8
        )
        assert [r.level for r in report.rows] == levels


class TestSaltPepper:
    def test_zero_fraction_identity(self):
        img = constant_image(0.4)
        out = salt_pepper(img, 0.0, seed=1)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_full_fraction_all_extremes(self):
        out = salt_pepper(constant_image(0.4, 16), 1.0, seed=1)
        assert np.isin(out.pixels, [0.0, 1.0]).all()

    def test_exact_count_28x28_at_one_percent(self):
        img = constant_image(0.5, 28)
        out = salt_pepper(img, 0.01, seed=5)
        changed = np.count_nonzero(out.pixels != img.pixels)
        # floor(784 * 0.01 + 0.5) = 8 positions; a corrupted position may
        # coincide with the original value only if the image is already 0/1
        assert changed == 8

    @given(fraction=st.floats(0, 1), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_exact_count_property(self, fraction, seed):
        img = ImageGrid.from_array(np.full((9, 7), 0.37))
        out = salt_pepper(img, fraction, seed=seed)
        expected = int(np.floor(fraction * 63 + 0.5))
        assert np.count_nonzero(out.pixels != img.pixels) == expected

    def test_channels_corrupted_together(self):
        rng = seeded_rng(8, "sp-rgb")
        img = ImageGrid.from_array(rng.uniform(0.2, 0.8, (10, 10, 3)))
        out = salt_pepper(img, 0.3, seed=4)
        changed = (out.pixels != img.pixels).reshape(100, 3)
        for row in changed:
            assert row.all() or not row.any()

    def test_out_of_range_fraction_rejected(self):
        error = r"^config-invalid: fraction must lie in \[0, 1\], got 1.5$"
        with pytest.raises(ConfigError, match=error):
            salt_pepper(constant_image(0.5), 1.5)


class TestSpeckle:
    def test_zero_variance_identity(self):
        img = constant_image(0.6)
        np.testing.assert_array_equal(speckle(img, 0.0, seed=1).pixels, img.pixels)

    def test_all_zero_image_fixed_point(self):
        img = constant_image(0.0, 16)
        np.testing.assert_array_equal(speckle(img, 0.5, seed=2).pixels, img.pixels)

    def test_moment_check(self):
        out = speckle(constant_image(0.5, 64), 0.05, seed=3)
        expected_std = 0.5 * np.sqrt(0.05)
        assert abs(out.pixels.std() - expected_std) / expected_std < 0.2

    def test_deterministic(self):
        img = constant_image(0.5)
        np.testing.assert_array_equal(
            speckle(img, 0.1, seed=7).pixels, speckle(img, 0.1, seed=7).pixels
        )


class TestPoissonNoise:
    def test_all_zero_image_fixed_point(self):
        img = constant_image(0.0, 16)
        np.testing.assert_array_equal(poisson_noise(img, 0.5, seed=1).pixels, img.pixels)

    def test_small_level_moments(self):
        level = 0.05
        lam = 255.0 / level
        out = poisson_noise(constant_image(0.5, 64), level, seed=2)
        assert abs(out.pixels.mean() - 0.5) < 0.02
        expected_var = 0.5 / lam
        assert abs(out.pixels.var() - expected_var) / expected_var < 0.2

    def test_deterministic(self):
        img = constant_image(0.5)
        a = poisson_noise(img, 0.3, seed=4)
        b = poisson_noise(img, 0.3, seed=4)
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_level_zero_is_identity(self):
        img = constant_image(0.5)
        np.testing.assert_array_equal(poisson_noise(img, 0.0, seed=1).pixels, img.pixels)

    def test_level_above_one_rejected(self):
        error = r"^config-invalid: level must lie in \[0, 1\], got 1.5$"
        with pytest.raises(ConfigError, match=error):
            poisson_noise(constant_image(0.5), 1.5)

    def test_level_below_numpy_limit_rejected(self):
        """A level whose photon scale 255/level is past what NumPy's Poisson
        sampler takes is a named usage error, not NumPy's ValueError; the
        smallest level it takes still runs."""
        img = constant_image(1.0)
        smallest = POISSON_BASE / float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)
        validate_image(poisson_noise(img, smallest, seed=1))
        feats = extract_batch([img], ExtractConfig())
        for level in (np.nextafter(smallest, 0.0), 1e-17, 5e-324):
            with pytest.raises(ConfigError, match="^invalid-level: must be 0 or at least"):
                poisson_noise(img, level)
            with pytest.raises(ConfigError, match="^invalid-level"):
                NoiseSpec("poisson", level)
            with pytest.raises(ConfigError, match="^invalid-level"):
                sensitivity_sweep(feats, [img], "poisson", [0.0, level], PipelineConfig())


class TestApplyNoise:
    @pytest.mark.parametrize("kind", ["gaussian", "salt_pepper", "speckle", "poisson"])
    def test_dispatch_and_validity(self, kind):
        img = corpus(77, 1, "apply")[0]
        out = apply_noise(img, NoiseSpec(kind=kind, level=0.2, seed=3))
        validate_image(out)

    def test_unknown_kind_rejected(self):
        kinds = "gaussian, salt_pepper, speckle or poisson"
        error = f"^config-invalid: kind must be {kinds}, got 'cosmic'$"
        with pytest.raises(ConfigError, match=error):
            apply_noise(constant_image(0.5), NoiseSpec(kind="cosmic", level=0.1))

    @pytest.mark.parametrize("seed", [-1, 1.5, 2**64])
    def test_bad_seed_rejected_on_construction(self, seed):
        # sigma 0 never draws, so only the construction check can catch it
        error = "^invalid-seed" if isinstance(seed, int) else "^config-invalid: seed must be int"
        with pytest.raises(ConfigError, match=error):
            apply_noise(constant_image(0.5), NoiseSpec("gaussian", 0.0, seed=seed))

    @pytest.mark.parametrize("seed", [1.5, True, "0", None, -1, 2**64])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_seed_argument_named_as_the_field(self, kind, seed):
        """A noise operator's seed argument gives the text of NoiseSpec's seed field."""
        with pytest.raises(ConfigError) as field:
            NoiseSpec(kind, 0.1, seed=seed)
        with pytest.raises(ConfigError) as argument:
            {"gaussian": gaussian_noise, "salt_pepper": salt_pepper, "speckle": speckle,
             "poisson": poisson_noise}[kind](constant_image(0.5), 0.1, seed=seed)
        assert str(argument.value) == str(field.value)

    def test_sweep_kind_named_as_the_field(self):
        """sensitivity_sweep checks its kind by the rule NoiseSpec's field holds."""
        with pytest.raises(ConfigError) as field:
            NoiseSpec("cosmic", 0.1)
        with pytest.raises(ConfigError) as argument:
            sensitivity_sweep([[0.5]], [], "cosmic", [0.0], PipelineConfig())
        assert str(argument.value) == str(field.value)


class TestNonFiniteReals:
    """A sensitivity row holds only reals its JSON-lines file can carry: a
    NaN level passed the increasing-levels check and was written as ``nan``;
    now each field's range rule rejects NaN and the infinities as it is built."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["level", "cosine_score", "ks_d", "ks_p", "anomaly_rate"])
    def test_sensitivity_row(self, field, bad):
        values = dict(level=0.1, cosine_score=1.0, ks_d=0.0, ks_p=1.0, anomaly_rate=0.0)
        values[field] = bad
        interval = {"level": "(-inf, inf)", "cosine_score": "[-1, 1]"}.get(field, "[0, 1]")
        message = f"^config-invalid: {field} must lie in {re.escape(interval)}, got {bad}$"
        with pytest.raises(ConfigError, match=message):
            SensitivityRow(**values)


class TestSensitivitySweep:
    cfg = PipelineConfig().extract

    def test_a_report_of_no_level(self):
        with pytest.raises(DataError, match="^empty-report: at least one level required$"):
            SensitivityReport("gaussian", [])

    def test_level_zero_on_identical_sets(self):
        imgs = corpus(31, 12, "sweep-id")
        report = sensitivity_sweep(
            extract_batch(imgs, self.cfg), imgs, "salt_pepper", [0.0], PipelineConfig(), seed=1
        )
        row = report.rows[0]
        assert row.cosine_score == pytest.approx(1.0, abs=1e-12)
        assert row.ks_d == 0.0 and row.ks_p == 1.0

    def test_total_corruption_drops_cosine(self):
        base = corpus(32, 12, "sweep-base")
        test = corpus(33, 12, "sweep-test")
        report = sensitivity_sweep(
            extract_batch(base, self.cfg), test, "salt_pepper", [0.0, 1.0], PipelineConfig(), seed=2
        )
        assert report.rows[1].cosine_score < report.rows[0].cosine_score

    def test_monotone_trend_salt_pepper_and_speckle(self):
        base = corpus(34, 25, "sweep-mono-b")
        test = corpus(35, 25, "sweep-mono-t")
        levels = [0.0, 0.1, 0.3, 0.6, 0.9]
        for kind in ("salt_pepper", "speckle"):
            report = sensitivity_sweep(
                extract_batch(base, self.cfg), test, kind, levels, PipelineConfig(), seed=3
            )
            cosines = [r.cosine_score for r in report.rows]
            assert spearman(levels, cosines) <= -0.9

    def test_rows_in_level_order_and_validated(self):
        base = corpus(36, 8, "sweep-ord-b")
        test = corpus(37, 8, "sweep-ord-t")
        levels = [0.0, 0.2, 0.5]
        report = sensitivity_sweep(
            extract_batch(base, self.cfg), test, "gaussian", levels, PipelineConfig(), seed=4
        )
        assert [r.level for r in report.rows] == levels

    def test_non_increasing_levels_rejected(self):
        imgs = corpus(38, 4, "sweep-bad")
        with pytest.raises(ConfigError, match="invalid-levels"):
            sensitivity_sweep(
                extract_batch(imgs, self.cfg), imgs, "gaussian", [0.3, 0.1], PipelineConfig(),
                seed=5,
            )

    def test_deterministic_under_seed(self):
        base = corpus(39, 6, "sweep-det-b")
        test = corpus(40, 6, "sweep-det-t")
        feats = extract_batch(base, self.cfg)
        r1 = sensitivity_sweep(feats, test, "speckle", [0.0, 0.4], PipelineConfig(), seed=6)
        r2 = sensitivity_sweep(feats, test, "speckle", [0.0, 0.4], PipelineConfig(), seed=6)
        assert r1 == r2

    def test_empty_test_set_rejected(self):
        feats = extract_batch(corpus(41, 3, "sweep-empty"), self.cfg)
        for empty in ([], iter([])):
            with pytest.raises(DataError, match="^empty-batch: "):
                sensitivity_sweep(feats, empty, "gaussian", [0.0, 0.1], PipelineConfig())

    def test_baseline_vectors_may_share_an_id(self):
        """The gate library the sweep sketches for itself holds ids of its own,
        so a baseline whose vectors share an id (here the empty one) sweeps as
        drift_report scores it."""
        imgs = corpus(43, 4, "sweep-ids")
        feats = extract_batch(imgs, self.cfg)
        shared = [FeatureVector(v.values) for v in feats]
        got = sensitivity_sweep(shared, imgs, "gaussian", [0.0, 0.1], PipelineConfig(), seed=7)
        assert got == sensitivity_sweep(feats, imgs, "gaussian", [0.0, 0.1], PipelineConfig(),
                                        seed=7)

    @pytest.mark.parametrize(
        "kind, baseline_size, levels, error",
        [
            ("blur", 3, [0.0], "config-invalid"),
            ("gaussian", 0, [0.0], "empty-batch"),
            ("gaussian", 3, [], "invalid-levels"),
            ("gaussian", 3, [0.3, 0.1], "invalid-levels"),
            # the id keeps the text this case expected before a level was read by its rule
            pytest.param(
                "salt_pepper", 3, [0.0, 1.5], r"config-invalid: fraction must lie in \[0, 1\]",
                id="salt_pepper-3-levels4-invalid-fraction",
            ),
        ],
    )
    def test_arguments_checked_before_first_test_image(self, kind, baseline_size, levels, error):
        feats = extract_batch(corpus(42, baseline_size, "sweep-check"), self.cfg)

        def test_images():
            raise AssertionError("test set read before the arguments were checked")
            yield

        with pytest.raises((ConfigError, DataError), match=f"^{error}"):
            sensitivity_sweep(feats, test_images(), kind, levels, PipelineConfig())


@st.composite
def _ladders(draw, kind):
    # strictly increasing, starting at level 0; fractions and Poisson levels stay in [0, 1]
    top = 1.0 if kind in ("salt_pepper", "poisson") else 2.0
    extra = draw(st.lists(st.floats(0.0, top, exclude_min=True), max_size=3, unique=True))
    return [0.0] + sorted(extra)


@given(
    data=st.data(),
    rgb=st.booleans(),
    kind=st.sampled_from(NOISE_KINDS),
    n_base=st.integers(1, 5),
    n_test=st.integers(1, 4),
    side=st.integers(8, 14),
    seed=st.integers(0, 2**64 - 1),
    cosine_mode=st.sampled_from(["centroid", "mean_pairwise"]),
)
@settings(max_examples=100, deadline=None)
def test_sweep_equals_level_major_reference(
    data, rgb, kind, n_base, n_test, side, seed, cosine_mode
):
    """The image-major sweep gives the level-major reference's report and bytes,
    whether the test set is a list or a one-shot generator."""
    levels = data.draw(_ladders(kind))
    make = rgb_corpus if rgb else corpus
    base = make(seed % 1000, n_base, "prop-base", side, side)
    test = make(seed % 1000 + 1, n_test, "prop-test", side, side + 1)
    pipe = PipelineConfig()
    pipe = replace(pipe, stats=replace(pipe.stats, cosine_mode=cosine_mode))
    feats = extract_batch(base, pipe.extract)
    try:
        expected = reference_path.sensitivity_sweep(feats, test, kind, levels, pipe, seed=seed)
    except Exception as exc:  # whatever the reference raises, the sweep raises alike
        event(f"reference raised {type(exc).__name__}")
        for test_images in (list(test), (img for img in test)):
            with pytest.raises(type(exc)) as got:
                sensitivity_sweep(feats, test_images, kind, levels, pipe, seed=seed)
            assert str(got.value) == str(exc)
        return
    for test_images in (list(test), (img for img in test)):
        got = sensitivity_sweep(feats, test_images, kind, levels, pipe, seed=seed)
        assert got == expected
        for fmt in ("jsonl", "csv"):
            config = {"seed": seed}
            assert encode_report(got, fmt, config) == encode_report(expected, fmt, config)
