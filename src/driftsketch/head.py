"""Single tunable sigmoid layer over frozen features.

The extractor plays the frozen part of the network; only the (w, b) head is
trained, with binary cross-entropy loss and Adam. Bias correction of the
moment estimates defaults on; `bias_correction=False` applies the raw-moment
update instead, so both update rules are available and tested.
"""

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .core import ConfigError, DataError, _array, _as_vector, _at_least, _batch, _check_fields
from .core import _DECAY, _POSITIVE, _check_seed, _decode_value, _frozen_vector, _held, _is_real
from .core import seeded_rng


@dataclass(frozen=True)
class HeadModel:
    w: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "w", _held(self.w, ": HeadModel.w").ravel())
        _check_fields(self)
        if not (np.isfinite(self.w).all() and math.isfinite(self.b)):
            raise DataError("non-finite-parameter")


@dataclass(frozen=True)
class AdamState:
    """Adam's first and second moment estimates, 1-D float64 arrays of one
    length held by `core._held`, after `t` >= 0 steps."""

    m: Annotated[np.ndarray, _array("AdamState.m", ndim=1)]
    v: Annotated[np.ndarray, _array("AdamState.v", ndim=1)]
    t: Annotated[int, _at_least(0)] = 0

    def __post_init__(self):
        _check_fields(self)
        if self.m.shape != self.v.shape:
            raise DataError(
                f"dimension-mismatch: AdamState moments of lengths {len(self.m)} and {len(self.v)}"
            )

    @classmethod
    def fresh(cls, n_params):
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


@dataclass(frozen=True)
class TrainConfig:
    lr: Annotated[float, _POSITIVE] = 5e-5
    beta1: Annotated[float, _DECAY] = 0.9
    beta2: Annotated[float, _DECAY] = 0.999
    epsilon: Annotated[float, _POSITIVE] = 1e-8
    epochs: Annotated[int, _at_least(1)] = 20
    batch_size: Annotated[int, _at_least(1)] = 32
    bias_correction: bool = True
    seed: Annotated[int, _check_seed] = 0

    __post_init__ = _check_fields


@dataclass(frozen=True)
class _Checkpoint:
    """What ``store.save_model`` writes, less kind and schema_version. ``w`` is
    checked here, to keep its messages: a flat list of ``float``-typed weights."""

    dim: int
    w: object
    b: float
    train: TrainConfig | None

    def __post_init__(self):
        shape = np.array(self.w, dtype=object).shape
        if not isinstance(self.w, list) or len(shape) != 1:
            raise ConfigError(f"config-invalid: weights must be a flat list, got shape {shape}")
        for x in self.w:
            _decode_value(float, x, "weights")
        if len(self.w) != self.dim:
            raise ConfigError(f"config-invalid: dim {self.dim} but {len(self.w)} weights")


PROB_CLAMP = 1e-12


def _sigmoid(z):
    """Elementwise logistic function in the numerically stable split form.

    exp only ever sees -|z|, so it never overflows: 1/(1+e^-z) for z >= 0,
    e^z/(1+e^z) below.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def predict(model, x):
    """P(label=1 | x) = sigmoid(w . x + b)."""
    values = _as_vector(x, "x").values
    if values.shape[0] != model.w.shape[0]:
        raise DataError(
            f"dimension-mismatch: input dim {values.shape[0]}, model dim {model.w.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        z = float(model.w @ values) + model.b
    if math.isnan(z):  # an infinite w . x has a sigmoid; two of opposite signs do not
        raise DataError("non-finite-value: w . x overflows")
    return float(_sigmoid(z))


def bce_loss(probs, labels):
    """Mean binary cross-entropy of probabilities in [0, 1] against labels 0
    or 1, two vectors of one length (see `core._frozen_vector`), the
    probabilities clamped away from 0 and 1; DataError("invalid-label") or
    DataError("invalid-probability") names the first sample that is neither."""
    p, y = _frozen_vector(probs, ": probs"), _frozen_vector(labels, ": labels")
    if len(p) != len(y):
        raise DataError(f"length-mismatch: {len(p)} probs vs {len(y)} labels")
    if len(p) == 0:
        raise DataError("empty-batch")
    for name, values, bad, expected in (
        ("probability", p, (p < 0.0) | (p > 1.0), "a real in [0, 1]"),
        ("label", y, (y != 0.0) & (y != 1.0), "0 or 1"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            got = values[i].item()
            raise DataError(f"invalid-{name}: sample {i} has {name} {got!r}, expected {expected}")
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def _batch_arrays(batch, name, d=None):
    """(xs, ys) of (vector, label) pairs whose vectors, read by
    ``core._batch`` as `name`, have dim d, by default the dim of the first,
    and whose labels are 0 or 1; else a named DataError."""
    vectors = _batch([vec for vec, _ in batch], name, d)
    for i, (_, label) in enumerate(batch):
        if not (_is_real(label) and label in (0, 1)):
            raise DataError(f"invalid-label: sample {i} has label {label!r}, expected 0 or 1")
    return np.stack([v.values for v in vectors]), np.array([float(label) for _, label in batch])


def _probs_and_gradient(model, xs, ys):
    """Sigmoid outputs on the rows of xs and the mean BCE gradient over (w, b)."""
    probs = _sigmoid(xs @ model.w + model.b)
    resid = probs - ys
    grad = np.empty(model.w.shape[0] + 1)
    grad[:-1] = resid @ xs / len(ys)
    grad[-1] = resid.mean()
    return probs, grad


def bce_gradient(model, batch):
    """Analytic BCE gradient over (w, b): mean of (p - y) x and (p - y)."""
    xs, ys = _batch_arrays(batch, "batch", model.w.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        _, grad = _probs_and_gradient(model, xs, ys)
    if not np.isfinite(grad).all():
        raise DataError("non-finite-value: the gradient overflows")
    return grad


def adam_step(state, params, grad, cfg):
    """One Adam update; returns the new (AdamState, HeadModel).

    With bias_correction the corrected moments m/(1-b1^t), v/(1-b2^t) drive
    the update; without it the raw moments are used directly.
    """
    grad = _held(grad, ": grad")
    n = params.w.shape[0] + 1
    if grad.shape != (n,) or state.m.shape != (n,):
        raise DataError(
            f"dimension-mismatch: gradient {grad.shape} and moments {state.m.shape}, expected ({n},)"
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
    xs, ys = _batch_arrays(data, "data")
    labels = sorted({int(y) for y in ys})
    if labels != [0, 1]:
        raise DataError(f"single-class-data: labels present: {labels}")
    d = xs.shape[1]

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
            # a diverging step overflows; the HeadModel it yields rejects the result. It
            # goes first: bce_loss would reject the NaN probabilities that follow
            with np.errstate(over="ignore", invalid="ignore"):
                probs, grad = _probs_and_gradient(model, xs[idx], by)
                try:
                    state, model = adam_step(state, model, grad, cfg)
                except DataError as exc:
                    raise DataError(f"{exc}: training diverged at epoch {epoch}") from None
                epoch_losses.append(bce_loss(probs, by))
        curve.append(float(np.mean(epoch_losses)))
    return model, curve
