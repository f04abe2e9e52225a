import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftsketch import (
    ConfigError,
    DataError,
    ExtractConfig,
    FeatureVector,
    ImageGrid,
    QuantConfig,
    StoreError,
    l2_normalize,
    load_embeddings,
    tokenize,
)
from driftsketch.core import seeded_rng
from driftsketch.extract import extract_batch, extract_builtin, extract_fingerprint
from synthcorpus import corpus, rgb_corpus


def oracle_extract(img, cfg):
    """Straight-line reimplementation of the extractor definition.

    Kept deliberately loop-based and independent of the vectorized code
    under test; only the projection stream is shared, since the stream is
    part of the definition.
    """
    raster = img.pixels.reshape(img.height, img.width, img.channels)
    g, b = cfg.grid, cfg.hist_bins
    feats = []
    for c in range(img.channels):
        for i in range(g):
            r0, r1 = (img.height * i) // g, (img.height * (i + 1)) // g
            for j in range(g):
                c0, c1 = (img.width * j) // g, (img.width * (j + 1)) // g
                vals = [
                    raster[r, col, c] for r in range(r0, r1) for col in range(c0, c1)
                ]
                mean = sum(vals) / len(vals)
                var = sum((v - mean) ** 2 for v in vals) / len(vals)
                feats.append(mean)
                feats.append(math.sqrt(var))
        counts = [0] * b
        for r in range(img.height):
            for col in range(img.width):
                idx = max(math.ceil(raster[r, col, c] * b) - 1, 0)
                counts[idx] += 1
        total = img.height * img.width
        feats.extend(cnt / total for cnt in counts)
    vec = feats
    if cfg.projection_dim > 0:
        mat = seeded_rng(cfg.projection_seed, "extract.projection").standard_normal(
            (cfg.projection_dim, len(vec))
        )
        vec = [sum(mat[r][i] * vec[i] for i in range(len(vec))) for r in range(cfg.projection_dim)]
    if cfg.l2_normalize:
        norm = math.sqrt(sum(v * v for v in vec))
        if norm > 0:
            vec = [v / norm for v in vec]
    return np.array(vec)


class TestExtractBuiltin:
    def test_constant_image_statistics(self):
        img = ImageGrid.from_array(np.full((4, 4), 0.5))
        cfg = ExtractConfig(grid=2, hist_bins=2, l2_normalize=False)
        vec = extract_builtin(img, cfg).values
        # 4 patches of (mean, std), then the histogram
        np.testing.assert_allclose(vec[:8:2], 0.5)
        np.testing.assert_allclose(vec[1:8:2], 0.0)
        np.testing.assert_allclose(vec[8:], [1.0, 0.0])

    def test_two_by_two_analytic(self):
        img = ImageGrid(width=2, height=2, channels=1, pixels=[0, 0, 1, 1])
        cfg = ExtractConfig(grid=1, hist_bins=2, l2_normalize=False)
        vec = extract_builtin(img, cfg).values
        np.testing.assert_allclose(vec, [0.5, 0.5, 0.5, 0.5])

    def test_matches_straight_line_oracle(self):
        rng = seeded_rng(99, "extract-oracle")
        img = ImageGrid.from_array(rng.uniform(0, 1, (8, 8)))
        cfg = ExtractConfig(grid=4, hist_bins=16, projection_dim=32, projection_seed=5)
        got = extract_builtin(img, cfg).values
        assert got.shape == (32,)
        np.testing.assert_allclose(got, oracle_extract(img, cfg), atol=1e-12)

    def test_matches_oracle_rgb_non_divisible(self):
        rng = seeded_rng(100, "extract-oracle-rgb")
        img = ImageGrid.from_array(rng.uniform(0, 1, (7, 5, 3)))
        cfg = ExtractConfig(grid=3, hist_bins=4, l2_normalize=True)
        got = extract_builtin(img, cfg).values
        assert got.shape == (3 * (2 * 9 + 4),)
        np.testing.assert_allclose(got, oracle_extract(img, cfg), atol=1e-12)

    def test_pure_function(self):
        rng = seeded_rng(1, "extract-pure")
        img = ImageGrid.from_array(rng.uniform(0, 1, (8, 8)))
        cfg = ExtractConfig()
        a = extract_builtin(img, cfg).values
        b = extract_builtin(img, cfg).values
        np.testing.assert_array_equal(a, b)

    def test_histogram_sums_to_one_per_channel(self):
        rng = seeded_rng(2, "extract-hist")
        img = ImageGrid.from_array(rng.uniform(0, 1, (9, 7, 3)))
        cfg = ExtractConfig(grid=2, hist_bins=8, l2_normalize=False)
        vec = extract_builtin(img, cfg).values
        per_channel = 2 * 4 + 8
        for c in range(3):
            hist = vec[c * per_channel + 8 : (c + 1) * per_channel]
            assert abs(hist.sum() - 1.0) < 1e-12

    def test_value_one_lands_in_last_bin(self):
        img = ImageGrid.from_array(np.ones((4, 4)))
        cfg = ExtractConfig(grid=1, hist_bins=4, l2_normalize=False)
        vec = extract_builtin(img, cfg).values
        np.testing.assert_allclose(vec[2:], [0, 0, 0, 1.0])

    def test_l2_normalized_output(self):
        rng = seeded_rng(3, "extract-norm")
        img = ImageGrid.from_array(rng.uniform(0, 1, (8, 8)))
        vec = extract_builtin(img, ExtractConfig()).values
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_projection_seed_changes_output(self):
        rng = seeded_rng(4, "extract-proj")
        img = ImageGrid.from_array(rng.uniform(0, 1, (8, 8)))
        a = extract_builtin(img, ExtractConfig(projection_dim=8, projection_seed=1)).values
        b = extract_builtin(img, ExtractConfig(projection_dim=8, projection_seed=2)).values
        c = extract_builtin(img, ExtractConfig(projection_dim=8, projection_seed=1)).values
        assert (a != b).any()
        np.testing.assert_array_equal(a, c)

    def test_image_smaller_than_grid(self):
        img = ImageGrid.from_array(np.zeros((2, 2)))
        with pytest.raises(DataError, match="image-smaller-than-grid"):
            extract_builtin(img, ExtractConfig(grid=3))

    def test_projection_dim_exceeding_raw_dim(self):
        img = ImageGrid.from_array(np.zeros((4, 4)))
        cfg = ExtractConfig(grid=1, hist_bins=2, projection_dim=100)
        with pytest.raises(ConfigError, match="projection_dim"):
            extract_builtin(img, cfg)

    def test_batch_preserves_order_and_ids(self):
        rng = seeded_rng(5, "extract-batch")
        imgs = [ImageGrid.from_array(rng.uniform(0, 1, (6, 6))) for _ in range(3)]
        feats = extract_batch(imgs, ExtractConfig(grid=2, hist_bins=4), ["x", "y", "z"])
        assert [f.source_id for f in feats] == ["x", "y", "z"]

    def test_fingerprint_tracks_config(self):
        assert extract_fingerprint(ExtractConfig()) == extract_fingerprint(ExtractConfig())
        assert extract_fingerprint(ExtractConfig()) != extract_fingerprint(ExtractConfig(grid=5))


@st.composite
def image_and_config(draw):
    grid = draw(st.integers(1, 6))
    h, w = draw(st.integers(grid, 24)), draw(st.integers(grid, 24))
    channels = draw(st.sampled_from([1, 3]))
    hist_bins = draw(st.integers(2, 16))
    raw_dim = channels * (2 * grid * grid + hist_bins)
    cfg = ExtractConfig(
        grid=grid,
        hist_bins=hist_bins,
        projection_dim=draw(st.one_of(st.just(0), st.integers(1, raw_dim))),
        projection_seed=draw(st.integers(0, 3)),
        l2_normalize=draw(st.booleans()),
    )
    # histogram edges and both ends of the range, among arbitrary values
    pixel = st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1.0 / hist_bins, 0.5])
    )
    return ImageGrid.from_array(draw(arrays(np.float64, (h, w, channels), elements=pixel))), cfg


@given(case=image_and_config())
@settings(max_examples=150, deadline=None)
def test_extractor_matches_oracle_to_rounding(case):
    """The extractor sums in another order than the oracle's sequential loops,
    so they agree to rounding: a sum of n terms of magnitude <= 1 in two
    orders differs by at most n ulp of 1. The longest sums here are a patch
    (at most h*w pixels) and a projected component (raw_dim terms)."""
    img, cfg = case
    got = extract_builtin(img, cfg).values
    expected = oracle_extract(img, cfg)
    assert got.shape == expected.shape
    n_terms = img.height * img.width + cfg.raw_dim(img.channels)
    atol = n_terms * np.finfo(np.float64).eps * max(1.0, np.abs(expected).max())
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=atol)


@given(
    size=st.tuples(st.integers(4, 24), st.integers(4, 24)),
    grid=st.integers(1, 4),
    hist_bins=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rgb_features_are_the_gray_features_of_each_plane(size, grid, hist_bins, seed):
    """Without normalisation an RGB vector is the concatenation of its three
    planes' gray vectors, bit for bit: every channel is summed alike."""
    h, w = size
    pixels = seeded_rng(seed, "rgb-planes").integers(0, 256, (h, w, 3)) / 255.0
    cfg = ExtractConfig(grid=grid, hist_bins=hist_bins, l2_normalize=False)
    rgb = extract_builtin(ImageGrid.from_array(pixels), cfg).values
    planes = [extract_builtin(ImageGrid.from_array(pixels[:, :, c]), cfg).values for c in range(3)]
    np.testing.assert_array_equal(rgb, np.concatenate(planes))


@pytest.mark.parametrize(
    "images",
    [lambda: corpus(71, 40, "extract-tokens"), lambda: rgb_corpus(72, 15)],
    ids=["gray", "rgb"],
)
def test_default_token_sets_match_oracle(images):
    """At the default configs the rounding never moves a quantization bin."""
    cfg, q = ExtractConfig(), QuantConfig()
    for img in images():
        expected = tokenize(FeatureVector(values=oracle_extract(img, cfg)), q).tokens
        np.testing.assert_array_equal(tokenize(extract_builtin(img, cfg), q).tokens, expected)


class TestL2Normalize:
    def test_three_four_five(self):
        v = l2_normalize(FeatureVector(values=[3.0, 4.0], source_id="t"))
        np.testing.assert_allclose(v.values, [0.6, 0.8])
        assert v.source_id == "t"

    def test_zero_vector_unchanged(self):
        v = l2_normalize(FeatureVector(values=[0.0, 0.0]))
        np.testing.assert_array_equal(v.values, [0.0, 0.0])

    def test_random_vector_unit_norm(self):
        rng = seeded_rng(6, "l2")
        v = l2_normalize(FeatureVector(values=rng.standard_normal(16)))
        assert abs(np.linalg.norm(v.values) - 1.0) < 1e-12


class TestLoadEmbeddings:
    def _write(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        return str(path)

    def test_parses_records_in_order(self, tmp_path):
        path = self._write(
            tmp_path,
            "driftsketch-emb v1 dim=4 count=3\n"
            "a 1 2 3 4\n"
            "b 0.5 -1 2e-3 4\n"
            "c 0 0 0 1\n",
        )
        vecs = load_embeddings(path)
        assert [v.source_id for v in vecs] == ["a", "b", "c"]
        assert all(v.values.shape == (4,) for v in vecs)
        np.testing.assert_allclose(vecs[1].values, [0.5, -1, 2e-3, 4])

    def test_dimension_mismatch_names_record(self, tmp_path):
        path = self._write(
            tmp_path, "driftsketch-emb v1 dim=4 count=2\na 1 2 3 4\nb 1 2 3 4 5\n"
        )
        with pytest.raises(DataError, match=r"dimension-mismatch\(b\)"):
            load_embeddings(path)

    def test_empty_file_with_header(self, tmp_path):
        path = self._write(tmp_path, "driftsketch-emb v1 dim=8 count=0\n")
        assert load_embeddings(path) == []

    def test_bad_header(self, tmp_path):
        path = self._write(tmp_path, "something else\n")
        with pytest.raises(StoreError, match=r"malformed-file\(line 1\)"):
            load_embeddings(path)

    def test_non_finite_named(self, tmp_path):
        path = self._write(tmp_path, "driftsketch-emb v1 dim=2 count=1\na nan 1\n")
        with pytest.raises(DataError, match=r"non-finite-value\(a\)"):
            load_embeddings(path)

    def test_count_mismatch(self, tmp_path):
        path = self._write(tmp_path, "driftsketch-emb v1 dim=2 count=2\na 1 2\n")
        with pytest.raises(StoreError, match="malformed-file"):
            load_embeddings(path)

    def test_error_names_the_physical_line(self, tmp_path):
        path = self._write(
            tmp_path, "driftsketch-emb v1 dim=2 count=2\n\na 1 2\n\nb 1 x\n"
        )
        with pytest.raises(StoreError, match=r"malformed-file\(line 5\)"):
            load_embeddings(path)

    def test_blank_lines_between_records_are_skipped(self, tmp_path):
        path = self._write(tmp_path, "driftsketch-emb v1 dim=1 count=2\n\na 1\n  \nb 2\n")
        assert [v.source_id for v in load_embeddings(path)] == ["a", "b"]

    def test_duplicate_id(self, tmp_path):
        path = self._write(tmp_path, "driftsketch-emb v1 dim=1 count=2\na 1\na 2\n")
        with pytest.raises(StoreError, match="duplicate id"):
            load_embeddings(path)
