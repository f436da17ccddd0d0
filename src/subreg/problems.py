"""Square-loss binary classifiers over a finite training set.

Two predictor families share the :class:`FiniteSumProblem` contract: a
bias-free single sigmoid ``net(a; x) = sigmoid(a @ x)`` and small
feed-forward networks with tanh hidden layers and a sigmoid output unit.
Component i of the objective is the squared residual on training sample i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .finite_sum import FiniteSumProblem, as_index_set, as_vector

__all__ = [
    "Dataset",
    "NetworkSpec",
    "SquaredLossProblem",
    "sigmoid",
    "predict",
    "initial_point",
    "testing_loss",
    "classification_rate",
]

# Saturation guards: arguments are clamped before exponentiation and outputs
# are kept strictly inside (0, 1) so residuals never reach +-1 exactly.
_ARG_CLAMP = 500.0
_P_LO = 1e-300
_P_HI = 1.0 - 1e-16


def sigmoid(z):
    """Numerically stable logistic function, strictly inside (0, 1)."""
    z = np.clip(np.asarray(z, dtype=float), -_ARG_CLAMP, _ARG_CLAMP)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _P_LO, _P_HI)


@dataclass
class Dataset:
    """Feature matrix with binary labels.

    ``features`` has one finite row per sample; ``labels`` entries must be 0
    or 1.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # Row-major like a gathered subset, so that a full-sample evaluation
        # in place runs the same BLAS calls as one over copied rows.
        self.features = np.ascontiguousarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array (N, d)")
        # min and max propagate NaN and reach any infinity without the N x d
        # temporary of isfinite(features), which inflates the heap.
        f = self.features
        if f.size and not (np.isfinite(f.min()) and np.isfinite(f.max())):
            raise ValueError("features must be finite (found NaN or infinity)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a vector with one entry per sample")
        if self.labels.size and not np.isin(self.labels, (0.0, 1.0)).all():
            raise ValueError("labels must lie in {0, 1}")

    @property
    def N(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of the predictor.

    Empty ``hidden_sizes`` selects the bias-free single sigmoid, in which
    case the parameter count equals the input dimension.  With hidden
    layers each layer carries a bias and the output layer has width one.
    """

    input_dim: int
    hidden_sizes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden layer widths must be positive")

    @property
    def layer_dims(self) -> tuple:
        if not self.hidden_sizes:
            return ()
        return (self.input_dim, *self.hidden_sizes, 1)

    @property
    def parameter_count(self) -> int:
        if not self.hidden_sizes:
            return self.input_dim
        dims = self.layer_dims
        return sum((din + 1) * dout for din, dout in zip(dims[:-1], dims[1:]))


def _unpack(spec: NetworkSpec, x: np.ndarray):
    """Split a flat parameter vector into per-layer (W, b) pairs."""
    dims = spec.layer_dims
    layers = []
    pos = 0
    for din, dout in zip(dims[:-1], dims[1:]):
        w = x[pos : pos + din * dout].reshape(dout, din)
        pos += din * dout
        b = x[pos : pos + dout]
        pos += dout
        layers.append((w, b))
    return layers


def initial_point(spec: NetworkSpec, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Starting parameters: zeros for the no-net model, seeded uniform
    weights in +-sqrt(6 / (fan_in + fan_out)) with zero biases otherwise.

    A zero start would make every tanh layer identically zero, so layered
    networks require a generator.
    """
    if not spec.hidden_sizes:
        return np.zeros(spec.input_dim)
    if rng is None:
        raise ValueError("layered networks need a seeded generator for initialisation")
    parts = []
    dims = spec.layer_dims
    for din, dout in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (din + dout))
        parts.append(rng.uniform(-limit, limit, size=din * dout))
        parts.append(np.zeros(dout))
    return np.concatenate(parts)


def _forward(spec: NetworkSpec, x: np.ndarray, features: np.ndarray):
    """Batched forward pass.

    Returns the predictions and, for layered networks, the list of hidden
    activations needed by backpropagation.
    """
    if not spec.hidden_sizes:
        return sigmoid(features @ x), None
    layers = _unpack(spec, x)
    acts = [features]
    h = features
    for w, b in layers[:-1]:
        h = np.tanh(h @ w.T + b)
        acts.append(h)
    w_out, b_out = layers[-1]
    p = sigmoid((h @ w_out.T + b_out)[:, 0])
    return p, acts


def predict(spec: NetworkSpec, x, a) -> float:
    """Predicted label probability for a single feature vector."""
    x = as_vector(x, spec.parameter_count)
    a = as_vector(a, spec.input_dim, "a")
    if not np.isfinite(a).all() or not np.isfinite(x).all():
        raise FloatingPointError("non-finite input to predict")
    p, _ = _forward(spec, x, a[None, :])
    return float(p[0])


class SquaredLossProblem(FiniteSumProblem):
    """Training loss (1/N) * sum_i (y_i - net(a_i; x))^2 as a finite sum."""

    def __init__(self, dataset: Dataset, spec: NetworkSpec):
        if dataset.d != spec.input_dim:
            raise ValueError(
                f"dataset dimension {dataset.d} does not match network input {spec.input_dim}"
            )
        if dataset.N < 1:
            raise ValueError("training set is empty")
        self.dataset = dataset
        self.spec = spec
        self.n = spec.parameter_count
        self.N = dataset.N

    def component_value(self, i: int, x) -> float:
        return self.value_mean(np.array([i]), x)

    def component_gradient(self, i: int, x) -> np.ndarray:
        return self.gradient_mean(np.array([i]), x)

    def _rows(self, idx: np.ndarray):
        """Features and labels of an index set validated by ``as_index_set``.

        The full set 0..N-1 reads the dataset arrays in place; any other set
        gathers a copy of its rows.  A validated set is ascending and inside
        [0, N) but may repeat indices, so a size-N set is the full set
        exactly when it has no repeats.
        """
        if idx.size == self.N and (idx[1:] != idx[:-1]).all():
            return self.dataset.features, self.dataset.labels
        return self.dataset.features[idx], self.dataset.labels[idx]

    def value_mean(self, indices, x) -> float:
        idx = as_index_set(indices, self.N)
        x = as_vector(x, self.n)
        a, y = self._rows(idx)
        p, _ = _forward(self.spec, x, a)
        r = y - p
        return float(np.sum(r * r) / idx.size)

    def gradient_mean(self, indices, x) -> np.ndarray:
        idx = as_index_set(indices, self.N)
        x = as_vector(x, self.n)
        a, y = self._rows(idx)
        p, acts = _forward(self.spec, x, a)
        # d(y - p)^2 / dz_out = -2 (y - p) p (1 - p)
        dz = -2.0 * (y - p) * p * (1.0 - p)
        if not self.spec.hidden_sizes:
            return (a.T @ dz) / idx.size
        layers = _unpack(self.spec, x)
        delta = dz[:, None]
        grads = [None] * len(layers)
        for ell in range(len(layers) - 1, -1, -1):
            w, _ = layers[ell]
            gw = delta.T @ acts[ell]
            gb = delta.sum(axis=0)
            grads[ell] = (gw, gb)
            if ell > 0:
                delta = (delta @ w) * (1.0 - acts[ell] ** 2)
        flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
        return flat / idx.size


def testing_loss(spec: NetworkSpec, x, dataset: Dataset) -> float:
    """Mean squared residual of the predictor on a held-out set."""
    if dataset.d != spec.input_dim:
        raise ValueError("test set dimension does not match the network input")
    if dataset.N == 0:
        raise ValueError("test set is empty")
    x = as_vector(x, spec.parameter_count)
    p, _ = _forward(spec, x, dataset.features)
    r = dataset.labels - p
    return float(np.sum(r * r) / dataset.N)


def classification_rate(spec: NetworkSpec, x, dataset: Dataset) -> float:
    """Fraction of samples classified correctly at threshold 0.5.

    Predictions exactly at the threshold count as class 1.
    """
    if dataset.d != spec.input_dim:
        raise ValueError("test set dimension does not match the network input")
    if dataset.N == 0:
        raise ValueError("classification rate undefined on an empty set")
    x = as_vector(x, spec.parameter_count)
    p, _ = _forward(spec, x, dataset.features)
    predicted = (p >= 0.5).astype(float)
    return float(np.mean(predicted == dataset.labels))
