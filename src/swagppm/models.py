"""Small multiclass classifiers with hand-derived gradients.

Two families: a softmax-linear model and a one-hidden-layer tanh MLP.
All batch operations accept either a dense (n, d) array or a scipy CSR
matrix of features.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .params import Layout, ParameterVector

SOFTMAX_LINEAR = "softmax-linear"
MLP_1_HIDDEN = "mlp-1-hidden"

# Floor applied to probabilities before log so per-record risks stay finite.
PROB_FLOOR = 1e-300


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    family: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.family not in (SOFTMAX_LINEAR, MLP_1_HIDDEN):
            raise ModelError("unknown model family %r" % self.family)
        if self.family == MLP_1_HIDDEN and self.hidden_dim <= 0:
            raise ModelError("mlp-1-hidden requires hidden_dim > 0")
        if self.family == SOFTMAX_LINEAR and self.hidden_dim != 0:
            raise ModelError("softmax-linear requires hidden_dim == 0")
        if self.num_classes < 2:
            raise ModelError("need at least 2 classes")
        if self.weight_decay < 0:
            raise ModelError("weight_decay must be nonnegative")

    def layout(self):
        if self.family == SOFTMAX_LINEAR:
            return Layout([("W", (self.input_dim, self.num_classes)),
                           ("b", (self.num_classes,))])
        return Layout([("W1", (self.input_dim, self.hidden_dim)),
                       ("b1", (self.hidden_dim,)),
                       ("W2", (self.hidden_dim, self.num_classes)),
                       ("b2", (self.num_classes,))])

    @property
    def num_params(self):
        return self.layout().size


def init_params(spec, seed):
    """Seeded init: zeros for softmax-linear, fan-in-scaled uniform for MLP."""
    layout = spec.layout()
    values = np.zeros(layout.size)
    if spec.family == MLP_1_HIDDEN:
        rng = np.random.default_rng(seed)
        for name, fan_in in (("W1", spec.input_dim), ("W2", spec.hidden_dim)):
            _, shape, offset = layout.slot(name)
            size = int(np.prod(shape))
            bound = 1.0 / np.sqrt(fan_in)
            values[offset:offset + size] = rng.uniform(-bound, bound, size)
    return ParameterVector(values, layout)


def _check_features(spec, X):
    if X.shape[1] != spec.input_dim:
        raise ModelError(
            "feature dim %d does not match input tensor dim %d (W)"
            % (X.shape[1], spec.input_dim))


def _as_matrix(features):
    if sp.issparse(features):
        return features
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr


def _logits(spec, theta, X):
    _check_features(spec, X)
    if spec.family == SOFTMAX_LINEAR:
        Z = X @ theta.tensor("W") + theta.tensor("b")
        return np.asarray(Z), None
    H = np.tanh(np.asarray(X @ theta.tensor("W1")) + theta.tensor("b1"))
    return H @ theta.tensor("W2") + theta.tensor("b2"), H


def _softmax(Z):
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def forward_batch(spec, theta, X):
    """Softmax class probabilities for a batch, shape (n, num_classes)."""
    Z, _ = _logits(spec, theta, _as_matrix(X))
    return _softmax(Z)


def log_likelihood_batch(spec, theta, X, y):
    """Per-record log p(label | features); probabilities floored at PROB_FLOOR."""
    P = forward_batch(spec, theta, X)
    picked = P[np.arange(P.shape[0]), np.asarray(y)]
    return np.log(np.maximum(picked, PROB_FLOOR))


def _one_hot_residual(P, y):
    D = P.copy()
    D[np.arange(P.shape[0]), np.asarray(y)] -= 1.0
    return D


def _hidden_residual(theta, H, D):
    """Residual at the MLP's hidden pre-activations."""
    return (D @ theta.tensor("W2").T) * (1.0 - H * H)


def _backprop(theta, X, H, D, D1):
    """Flat gradient from output residuals D and, for the MLP (H given),
    hidden residuals D1; each row of D and D1 is one record's residual."""
    grad = np.empty(theta.layout.size)
    view = theta.layout.view
    if H is None:
        view(grad, "W")[:] = np.asarray(X.T @ D)
        view(grad, "b")[:] = D.sum(axis=0)
    else:
        view(grad, "W2")[:] = H.T @ D
        view(grad, "b2")[:] = D.sum(axis=0)
        view(grad, "W1")[:] = np.asarray(X.T @ D1)
        view(grad, "b1")[:] = D1.sum(axis=0)
    return grad


def weighted_nll_gradient(spec, theta, X, y, weights=None):
    """Gradient of mean weighted NLL plus (weight_decay/2)*||theta||^2.

    The mean is over batch size, not over the weight total, so a small
    weight shrinks that record's pull without renormalizing the others.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if n == 0:
        raise ModelError("empty batch")
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != n:
            raise ModelError("weights length does not match batch size")
        if np.any(weights < 0) or np.any(weights > 1):
            raise ModelError("weights must lie in [0, 1]")
    Z, H = _logits(spec, theta, X)
    P = _softmax(Z)
    D = _one_hot_residual(P, y) * (weights / n)[:, None]
    D1 = None if H is None else _hidden_residual(theta, H, D)
    grad = _backprop(theta, X, H, D, D1)
    if spec.weight_decay:
        grad += spec.weight_decay * theta.values
    return ParameterVector(grad, theta.layout)


def _row_sq_norms(X):
    if sp.issparse(X):
        return np.asarray(X.multiply(X).sum(axis=1)).ravel()
    return (X * X).sum(axis=1)


def clipped_gradient_sum(spec, theta, X, y, clip_norm):
    """Sum of per-example NLL gradients, each scaled by min(1, C/||g_i||).

    Per-example gradients of both families are per-layer rank-1, so the
    norms come from row norms without materializing n full gradients.
    Returns (gradient_sum as ParameterVector, per-example pre-clip norms).
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if n == 0:
        raise ModelError("empty minibatch")
    Z, H = _logits(spec, theta, X)
    P = _softmax(Z)
    D = _one_hot_residual(P, y)
    x_sq = _row_sq_norms(X)
    if H is None:
        D1 = None
        norms = np.sqrt((x_sq + 1.0) * (D * D).sum(axis=1))
    else:
        # D1 from the unscaled D: scaling first would round differently
        D1 = _hidden_residual(theta, H, D)
        norms = np.sqrt((_row_sq_norms(H) + 1.0) * (D * D).sum(axis=1)
                        + (x_sq + 1.0) * (D1 * D1).sum(axis=1))
    scale = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))[:, None]
    grad = _backprop(theta, X, H, D * scale,
                     None if D1 is None else D1 * scale)
    return ParameterVector(grad, theta.layout), norms


def mean_nll(spec, theta, X, y, weights=None):
    """Mean weighted NLL plus the weight-decay penalty (training objective)."""
    X = _as_matrix(X)
    n = X.shape[0]
    ll = log_likelihood_batch(spec, theta, X, y)
    if weights is None:
        data_term = -ll.mean()
    else:
        data_term = -(np.asarray(weights) * ll).sum() / n
    return data_term + 0.5 * spec.weight_decay * float(theta.values @ theta.values)
