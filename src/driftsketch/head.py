"""Single tunable sigmoid layer over frozen features.

The extractor plays the frozen part of the network; only the (w, b) head is
trained, with binary cross-entropy loss and Adam. Bias correction of the
moment estimates defaults on; `bias_correction=False` applies the raw-moment
update instead, so both update rules are available and tested.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, _check_count, _check_seed, seeded_rng


@dataclass(frozen=True)
class HeadModel:
    w: np.ndarray
    b: float

    def __post_init__(self):
        w = np.ascontiguousarray(self.w, dtype=np.float64).ravel()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))
        if not (np.isfinite(self.w).all() and math.isfinite(self.b)):
            raise DataError("non-finite-parameter")


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, n_params):
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 20
    batch_size: int = 32
    bias_correction: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"config-invalid: lr must lie in (0, inf), got {self.lr}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("config-invalid: betas must lie in [0, 1)")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(f"config-invalid: epsilon must lie in (0, inf), got {self.epsilon}")
        _check_count("epochs", self.epochs, 1)
        _check_count("batch_size", self.batch_size, 1)
        _check_seed(self.seed)


PROB_CLAMP = 1e-12


def _sigmoid(z):
    # numerically stable split form
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def predict(model, x):
    """P(label=1 | x) = sigmoid(w . x + b)."""
    values = x.values if hasattr(x, "values") else np.asarray(x, dtype=np.float64)
    if values.shape[0] != model.w.shape[0]:
        raise DataError(
            f"dimension-mismatch: input dim {values.shape[0]}, model dim {model.w.shape[0]}"
        )
    return _sigmoid(float(model.w @ values) + model.b)


def bce_loss(probs, labels):
    """Mean binary cross-entropy; probabilities clamped away from 0 and 1."""
    if len(probs) != len(labels):
        raise DataError(f"length-mismatch: {len(probs)} probs vs {len(labels)} labels")
    if len(probs) == 0:
        raise DataError("empty-batch")
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def _batch_arrays(model, batch):
    if not batch:
        raise DataError("empty-batch")
    d = model.w.shape[0]
    xs = np.empty((len(batch), d))
    ys = np.empty(len(batch))
    for i, (vec, label) in enumerate(batch):
        values = vec.values if hasattr(vec, "values") else np.asarray(vec, dtype=np.float64)
        if values.shape[0] != d:
            raise DataError(
                f"dimension-mismatch: sample {i} has dim {values.shape[0]}, model dim {d}"
            )
        xs[i] = values
        ys[i] = label
    return xs, ys


def _probs_and_gradient(model, xs, ys):
    """Sigmoid outputs on the rows of xs and the mean BCE gradient over (w, b)."""
    probs = np.array([_sigmoid(z) for z in xs @ model.w + model.b])
    resid = probs - ys
    grad = np.empty(model.w.shape[0] + 1)
    grad[:-1] = resid @ xs / len(ys)
    grad[-1] = resid.mean()
    return probs, grad


def bce_gradient(model, batch):
    """Analytic BCE gradient over (w, b): mean of (p - y) x and (p - y)."""
    xs, ys = _batch_arrays(model, batch)
    _, grad = _probs_and_gradient(model, xs, ys)
    return grad


def adam_step(state, params, grad, cfg):
    """One Adam update; returns the new (AdamState, HeadModel).

    With bias_correction the corrected moments m/(1-b1^t), v/(1-b2^t) drive
    the update; without it the raw moments are used directly.
    """
    grad = np.asarray(grad, dtype=np.float64)
    n = params.w.shape[0] + 1
    if grad.shape[0] != n or state.m.shape[0] != n:
        raise DataError(
            f"dimension-mismatch: gradient dim {grad.shape[0]}, expected {n}"
        )
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad * grad
    if cfg.bias_correction:
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
    else:
        m_hat, v_hat = m, v
    step = cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    new_w = params.w - step[:-1]
    new_b = params.b - step[-1]
    return AdamState(m=m, v=v, t=t), HeadModel(w=new_w, b=new_b)


def train_head(data, cfg):
    """Train the head on (FeatureVector, label) pairs.

    Runs epochs x ceil(N/B) Adam steps over seeded-shuffled mini-batches
    (final partial batch included). Weights start from a seeded unit normal
    scaled by 1/sqrt(d); bias starts at 0. Returns the model and the
    per-epoch mean batch loss. A step that makes a parameter non-finite
    raises DataError("non-finite-parameter: training diverged at epoch E"),
    E counted from 0 as in the loss curve.
    """
    if not data:
        raise DataError("empty-data")
    if len(data) < 2:
        raise DataError("single-class-data: need at least one sample per class")
    labels = {int(label) for _, label in data}
    if labels != {0, 1}:
        raise DataError(f"single-class-data: labels present: {sorted(labels)}")
    d = data[0][0].values.shape[0]
    for vec, _ in data:
        if vec.values.shape[0] != d:
            raise DataError(f"dimension-mismatch: mixed dims {vec.values.shape[0]} and {d}")

    xs = np.stack([vec.values for vec, _ in data])
    ys = np.array([float(label) for _, label in data])

    init_rng = seeded_rng(cfg.seed, "head.init")
    model = HeadModel(w=init_rng.standard_normal(d) / math.sqrt(d), b=0.0)
    state = AdamState.fresh(d + 1)

    curve = []
    n = len(data)
    for epoch in range(cfg.epochs):
        order = seeded_rng(cfg.seed, f"head.shuffle.{epoch}").permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            by = ys[idx]
            # a diverging step overflows; the HeadModel it yields rejects the result
            with np.errstate(over="ignore", invalid="ignore"):
                probs, grad = _probs_and_gradient(model, xs[idx], by)
                epoch_losses.append(bce_loss(probs, by))
                try:
                    state, model = adam_step(state, model, grad, cfg)
                except DataError as exc:
                    raise DataError(f"{exc}: training diverged at epoch {epoch}") from None
        curve.append(float(np.mean(epoch_losses)))
    return model, curve
