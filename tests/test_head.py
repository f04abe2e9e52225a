import math

import numpy as np
import pytest

from driftsketch import (
    AdamState,
    DataError,
    FeatureVector,
    HeadModel,
    TrainConfig,
    adam_step,
    bce_gradient,
    bce_loss,
    predict,
    train_head,
)
from driftsketch.core import seeded_rng
from driftsketch.head import _sigmoid

# independently computed at 50-digit precision
SIGMOID_1_5 = 0.8175744761936437
BCE_09_02 = 0.16425203348601803


class TestPredict:
    def test_zero_weights_give_half(self):
        model = HeadModel(w=np.zeros(3), b=0.0)
        assert predict(model, FeatureVector(values=[1.0, -2.0, 0.5])) == 0.5

    def test_orthogonal_input_gives_half(self):
        model = HeadModel(w=[1.0, 0.0], b=0.0)
        assert predict(model, FeatureVector(values=[0.0, 0.0])) == 0.5

    def test_scalar_oracle(self):
        model = HeadModel(w=[2.0, -1.0], b=0.5)
        p = predict(model, FeatureVector(values=[1.0, 1.0]))
        assert abs(p - SIGMOID_1_5) < 1e-15

    def test_extreme_inputs_stay_finite(self):
        model = HeadModel(w=[1000.0], b=0.0)
        assert predict(model, FeatureVector(values=[1.0])) == pytest.approx(1.0)
        assert predict(model, FeatureVector(values=[-1.0])) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "w, x",
        [([1e308, 1e308], [1e308, -1e308]), ([1e308, 1e308], [-1e308, 1e308]),
         ([1e308, 1e308, -1e308, -1e308], [1.0, 1.0, 1.0, 1.0])],
    )
    def test_overflow_in_the_order_of_the_sum_only(self, w, x):
        """The exact w . x is 0; a dot product summed in some orders, or
        with fused multiply-adds, overflows to an infinity of either sign.
        With 1e-300 more in the first component it is 1e8, not 0."""
        assert predict(HeadModel(w=w, b=0.0), x) == 0.5
        assert predict(HeadModel(w=[*w, 1e-300], b=0.0), [*x, 1e308]) == float(_sigmoid(1e8))

    def test_an_overflowing_dot_product_saturates(self):
        model = HeadModel(w=[1e308, 1e308], b=-1e308)
        assert predict(model, [1e308, 1e308]) == 1.0
        assert predict(model, [-1e308, -1e308]) == 0.0

    def test_dimension_mismatch(self):
        model = HeadModel(w=[1.0, 2.0], b=0.0)
        with pytest.raises(DataError, match="dimension-mismatch"):
            predict(model, FeatureVector(values=[1.0]))

    def test_sigmoid_matches_scalar_split_form(self):
        # the whole-array sigmoid against the per-element form it replaced;
        # np.exp and math.exp may round differently, by an ulp or so
        def scalar(t):
            if t >= 0.0:
                return 1.0 / (1.0 + math.exp(-t))
            e = math.exp(t)
            return e / (1.0 + e)

        z = np.concatenate([np.linspace(-800.0, 800.0, 321), [0.0, -0.0, 1e-300, -1e-300, 0.5]])
        got = _sigmoid(z)
        expected = [scalar(t) for t in z]
        np.testing.assert_allclose(got, expected, rtol=4 * np.finfo(float).eps, atol=0)
        assert got[0] == 0.0 and got[320] == 1.0  # both tails saturate without overflow

    def test_complement_symmetry(self):
        rng = seeded_rng(11, "head-sym")
        for _ in range(50):
            w = rng.standard_normal(4)
            b = float(rng.standard_normal())
            x = FeatureVector(values=rng.standard_normal(4))
            p = predict(HeadModel(w=w, b=b), x)
            q = predict(HeadModel(w=-w, b=-b), x)
            assert abs(p + q - 1.0) < 1e-12


class TestBceLoss:
    def test_half_prob_is_ln2(self):
        assert abs(bce_loss([0.5], [1]) - np.log(2)) < 1e-15

    def test_symmetric_pair(self):
        assert abs(bce_loss([0.5, 0.5], [0, 1]) - np.log(2)) < 1e-15

    def test_hand_evaluated_oracle(self):
        assert abs(bce_loss([0.9, 0.2], [1, 0]) - BCE_09_02) < 1e-15

    def test_clamping_handles_extremes(self):
        loss = bce_loss([0.0, 1.0], [0, 1])
        assert loss >= 0.0 and np.isfinite(loss)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length-mismatch"):
            bce_loss([0.5], [1, 0])

    def test_empty_batch(self):
        with pytest.raises(DataError, match="empty-batch"):
            bce_loss([], [])

    @pytest.mark.parametrize(
        "labels, error",
        [
            ([7], r"^invalid-label: sample 0 has label 7\.0, expected 0 or 1$"),
            ([1, -1], r"^invalid-label: sample 1 has label -1\.0, expected 0 or 1$"),
            ([0.5, 1], r"^invalid-label: sample 0 has label 0\.5, expected 0 or 1$"),
            ([float("nan"), 1], r"^non-finite-value: labels$"),
            (["1", 0], r"^non-real-value: labels: \['1', 0\]$"),
        ],
        ids=["seven", "negative", "half", "nan", "text"],
    )
    def test_label_other_than_0_or_1_rejected(self, labels, error):
        """The label 7 gave 0.693 as if it were 1."""
        with pytest.raises(DataError, match=error):
            bce_loss([0.5] * len(labels), labels)

    @pytest.mark.parametrize(
        "probs, error",
        [
            ([float("nan")], r"^non-finite-value: probs$"),
            ([0.5, 1.5], r"^invalid-probability: sample 1 has probability 1\.5, expected a real"),
            ([-0.1, 0.5], r"^invalid-probability: sample 0 has probability -0\.1, expected a real "
                          r"in \[0, 1\]$"),
            ([float("inf"), 0.5], r"^non-finite-value: probs$"),
            (["0.5", 0.5], r"^non-real-value: probs: \['0\.5', 0\.5\]$"),
            ([[0.5], [0.5]], r"^dimension-mismatch: probs is not a vector: shape \(2, 1\)$"),
        ],
        ids=["nan", "above-1", "negative", "inf", "text", "not-a-vector"],
    )
    def test_probability_outside_0_1_rejected(self, probs, error):
        """A NaN probability gave a NaN loss."""
        with pytest.raises(DataError, match=error):
            bce_loss(probs, [1] * len(probs))


def finite_difference_gradient(model, batch, step=1e-6):
    """Central differences of bce_loss(predict(...)) over (w, b)."""
    def loss_at(w, b):
        m = HeadModel(w=w, b=b)
        probs = [predict(m, x) for x, _ in batch]
        return bce_loss(probs, [y for _, y in batch])

    d = model.w.shape[0]
    grad = np.empty(d + 1)
    for i in range(d):
        up = model.w.copy()
        up[i] += step
        dn = model.w.copy()
        dn[i] -= step
        grad[i] = (loss_at(up, model.b) - loss_at(dn, model.b)) / (2 * step)
    grad[d] = (loss_at(model.w, model.b + step) - loss_at(model.w, model.b - step)) / (2 * step)
    return grad


class TestBceGradient:
    def test_fresh_model_single_positive(self):
        x = FeatureVector(values=[2.0, -1.0, 0.5])
        model = HeadModel(w=np.zeros(3), b=0.0)
        grad = bce_gradient(model, [(x, 1)])
        np.testing.assert_allclose(grad, [-0.5 * 2.0, -0.5 * -1.0, -0.5 * 0.5, -0.5])

    def test_an_overflowing_gradient_is_named(self):
        batch = [(FeatureVector(values=[1.7e308]), 0)] * 3
        with pytest.raises(DataError, match="^non-finite-value: the gradient overflows$"):
            bce_gradient(HeadModel(w=[0.0], b=0.0), batch)

    def test_saturated_predictions_zero_gradient(self):
        # z past +-745: exp underflows and predict returns exactly the label
        model = HeadModel(w=[1000.0], b=0.0)
        batch = [(FeatureVector(values=[1.0]), 1), (FeatureVector(values=[-1.0]), 0)]
        np.testing.assert_array_equal(bce_gradient(model, batch), [0.0, 0.0])

    def test_matches_finite_differences(self):
        rng = seeded_rng(12, "head-fd")
        for _ in range(20):
            d = int(rng.integers(1, 6))
            model = HeadModel(w=rng.standard_normal(d), b=float(rng.standard_normal()))
            batch = [
                (FeatureVector(values=rng.standard_normal(d)), int(rng.integers(0, 2)))
                for _ in range(5)
            ]
            analytic = bce_gradient(model, batch)
            numeric = finite_difference_gradient(model, batch)
            denom = np.maximum(1.0, np.abs(analytic))
            assert (np.abs(analytic - numeric) / denom).max() <= 1e-5

    def test_empty_batch(self):
        with pytest.raises(DataError, match="empty-batch"):
            bce_gradient(HeadModel(w=[1.0], b=0.0), [])


class TestAdamStep:
    def test_zero_gradient_keeps_parameters(self):
        cfg = TrainConfig()
        model = HeadModel(w=[1.0, -2.0], b=0.5)
        state, out = adam_step(AdamState.fresh(3), model, np.zeros(3), cfg)
        assert state.t == 1
        np.testing.assert_array_equal(out.w, model.w)
        assert out.b == model.b

    def test_single_step_with_bias_correction(self):
        cfg = TrainConfig()  # lr 5e-5, betas 0.9/0.999, eps 1e-8
        model = HeadModel(w=[0.0], b=0.0)
        state, out = adam_step(AdamState.fresh(2), model, [1.0, 0.0], cfg)
        assert abs(state.m[0] - 0.1) < 1e-12
        assert abs(state.v[0] - 0.001) < 1e-12
        m_hat = state.m[0] / (1 - 0.9)
        v_hat = state.v[0] / (1 - 0.999)
        assert abs(m_hat - 1.0) < 1e-12 and abs(v_hat - 1.0) < 1e-12
        expected = -cfg.lr * 1.0 / (1.0 + cfg.epsilon)
        assert abs(out.w[0] - expected) < 1e-12

    def test_single_step_raw_moments(self):
        cfg = TrainConfig(bias_correction=False)
        model = HeadModel(w=[0.0], b=0.0)
        _, out = adam_step(AdamState.fresh(2), model, [1.0, 0.0], cfg)
        expected = -cfg.lr * 0.1 / (np.sqrt(0.001) + cfg.epsilon)
        assert abs(out.w[0] - expected) < 1e-12

    def test_second_moments_stay_nonnegative(self):
        cfg = TrainConfig()
        rng = seeded_rng(13, "adam-v")
        state = AdamState.fresh(3)
        model = HeadModel(w=[0.0, 0.0], b=0.0)
        for _ in range(50):
            state, model = adam_step(state, model, rng.standard_normal(3), cfg)
            assert (state.v >= 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension-mismatch"):
            adam_step(AdamState.fresh(2), HeadModel(w=[0.0], b=0.0), [1.0, 1.0, 1.0], TrainConfig())

    @pytest.mark.parametrize(
        "grad, error",
        [
            (["a", "b"], r"^non-real-value: grad: \['a', 'b'\]$"),
            (1.0, r"^dimension-mismatch: gradient \(\) and moments \(2,\), expected \(2,\)$"),
            ([[1.0, 0.0]], r"^dimension-mismatch: gradient \(1, 2\) and moments \(2,\)"),
        ],
        ids=["text", "scalar", "matrix"],
    )
    def test_unreadable_gradient_named(self, grad, error):
        """Text raised a raw ValueError, and a scalar a raw IndexError."""
        with pytest.raises(DataError, match=error):
            adam_step(AdamState.fresh(2), HeadModel(w=[1.0], b=0.0), grad, TrainConfig())


def separable_blobs(seed, n=200):
    """Two 2-D classes separated by the line x=0 with margin >= 1."""
    rng = seeded_rng(seed, "blobs")
    half = n // 2
    xs = np.concatenate([rng.uniform(-3.0, -1.0, half), rng.uniform(1.0, 3.0, n - half)])
    ys = rng.uniform(-1.0, 1.0, n)
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    order = rng.permutation(n)
    return [
        (FeatureVector(values=[xs[i], ys[i]], source_id=str(i)), int(labels[i])) for i in order
    ]


class TestTrainHead:
    def test_separable_blobs_reach_high_accuracy(self):
        data = separable_blobs(21)
        cfg = TrainConfig(lr=0.05, epochs=20, seed=3)
        model, curve = train_head(data, cfg)
        preds = [predict(model, x) >= 0.5 for x, _ in data]
        acc = np.mean([p == bool(y) for p, (_, y) in zip(preds, data)])
        assert acc >= 0.99
        assert len(curve) == 20

    def test_loss_non_increasing_late_epochs(self):
        data = separable_blobs(22)
        _, curve = train_head(data, TrainConfig(lr=0.05, epochs=20, seed=3))
        tail = curve[-5:]
        assert all(b <= a + 1e-3 for a, b in zip(tail, tail[1:]))

    def test_one_step_bookkeeping(self):
        data = [
            (FeatureVector(values=[1.0], source_id="a"), 1),
            (FeatureVector(values=[-1.0], source_id="b"), 0),
        ]
        model, curve = train_head(data, TrainConfig(epochs=1, batch_size=2, seed=0))
        assert len(curve) == 1
        assert np.isfinite(model.w).all()

    def test_deterministic_under_seed(self):
        data = separable_blobs(23)
        cfg = TrainConfig(lr=0.05, epochs=5, seed=9)
        m1, c1 = train_head(data, cfg)
        m2, c2 = train_head(data, cfg)
        np.testing.assert_array_equal(m1.w, m2.w)
        assert m1.b == m2.b and c1 == c2

    def test_different_seed_changes_weights(self):
        data = separable_blobs(23)
        m1, _ = train_head(data, TrainConfig(lr=0.05, epochs=5, seed=9))
        m2, _ = train_head(data, TrainConfig(lr=0.05, epochs=5, seed=10))
        assert (m1.w != m2.w).any()

    def test_single_class_rejected(self):
        data = [
            (FeatureVector(values=[1.0], source_id="a"), 1),
            (FeatureVector(values=[2.0], source_id="b"), 1),
        ]
        with pytest.raises(DataError, match="single-class-data"):
            train_head(data, TrainConfig())

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="^empty-batch: data$"):
            train_head([], TrainConfig())

    def test_diverging_step_size_named(self):
        # any NumPy RuntimeWarning on the way fails this test (pytest filterwarnings)
        with pytest.raises(
            DataError, match=r"^non-finite-parameter: training diverged at epoch \d+$"
        ):
            train_head(separable_blobs(21), TrainConfig(lr=1e308, epochs=5, seed=3))
