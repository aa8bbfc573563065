"""Small multiclass classifiers with hand-derived gradients.

Two families: a softmax-linear model and a one-hidden-layer tanh MLP.
All batch operations accept either a dense (n, d) array or a scipy CSR
matrix of features. The functions the training and draw loops call
(log_likelihood_rows, the *_loglik gradients, objective) take theta as a
flat float64 array over spec.layout(); the others take a ParameterVector.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .params import Layout, ParameterVector, is_integer, is_number

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
        if not is_integer(self.hidden_dim):
            raise ModelError("hidden_dim must be an integer, got %r"
                             % self.hidden_dim)
        if self.family == MLP_1_HIDDEN and self.hidden_dim <= 0:
            raise ModelError("mlp-1-hidden requires hidden_dim > 0")
        if self.family == SOFTMAX_LINEAR and self.hidden_dim != 0:
            raise ModelError("softmax-linear requires hidden_dim == 0")
        if self.num_classes < 2:
            raise ModelError("need at least 2 classes")
        if not (is_number(self.weight_decay) and self.weight_decay >= 0):
            raise ModelError("weight_decay must be nonnegative")
        # built once; a non-integer dimension raises LayoutError
        object.__setattr__(self, "_layout", Layout(
            [("W", (self.input_dim, self.num_classes)),
             ("b", (self.num_classes,))] if self.family == SOFTMAX_LINEAR
            else [("W1", (self.input_dim, self.hidden_dim)),
                  ("b1", (self.hidden_dim,)),
                  ("W2", (self.hidden_dim, self.num_classes)),
                  ("b2", (self.num_classes,))]))

    def layout(self):
        return self._layout

    @property
    def num_params(self):
        return self._layout.size


def init_params(spec, seed):
    """Seeded init: zeros for softmax-linear, fan-in-scaled uniform for MLP."""
    layout = spec.layout()
    values = np.zeros(layout.size)
    if spec.family == MLP_1_HIDDEN:
        rng = np.random.default_rng(seed)
        for name, fan_in in (("W1", spec.input_dim), ("W2", spec.hidden_dim)):
            view = layout.view(values, name)
            bound = 1.0 / np.sqrt(fan_in)
            view[...] = rng.uniform(-bound, bound, view.shape)
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


def _logits(spec, theta, X, Z=None):
    """Logits (n, num_classes) and, for the MLP, its hidden activations H;
    the MLP's logits are written into Z when it is given."""
    _check_features(spec, X)
    view = spec.layout().view
    if spec.family == SOFTMAX_LINEAR:
        Z = np.asarray(X @ view(theta, "W"))
        Z += view(theta, "b")
        return Z, None
    H = np.asarray(X @ view(theta, "W1"))
    H += view(theta, "b1")
    np.tanh(H, out=H)
    Z = np.matmul(H, view(theta, "W2"), out=Z)
    Z += view(theta, "b2")
    return Z, H


def _exp_shifted(Z, sums):
    """Z <- exp(Z - row max of Z) and sums <- its row sums, in place."""
    np.max(Z, axis=1, out=sums)
    np.subtract(Z, sums[:, None], out=Z)
    np.exp(Z, out=Z)
    np.sum(Z, axis=1, out=sums)


def _softmax(Z):
    """Softmax of the rows of Z, computed in Z."""
    sums = np.empty(Z.shape[0])
    _exp_shifted(Z, sums)
    Z /= sums[:, None]
    return Z


def _log_floored(picked):
    """log(max(picked, PROB_FLOOR)) in place: the one log-likelihood formula."""
    np.maximum(picked, PROB_FLOOR, out=picked)
    return np.log(picked, out=picked)


def forward_batch(spec, theta, X):
    """Softmax class probabilities for a batch, shape (n, num_classes)."""
    Z, _ = _logits(spec, theta.values, _as_matrix(X))
    return _softmax(Z)


def log_likelihood_rows(spec, thetas, X, y):
    """Per-record log p(label | features) under each theta in turn, one
    length-n row per theta; probabilities floored at PROB_FLOOR.

    Every row is computed in the same buffers, allocated once per call, so
    a row is valid only until the next one is made: copy it to keep it.
    """
    X = _as_matrix(X)
    n, num_classes = X.shape[0], spec.num_classes
    # flat index of each record's label cell in the (n, num_classes) logits
    picked = np.ravel_multi_index((np.arange(n), np.asarray(y)),
                                  (n, num_classes))
    Z = np.empty((n, num_classes)) if spec.family == MLP_1_HIDDEN else None
    sums = np.empty(n)
    out = np.empty(n)
    for theta in thetas:
        E, _ = _logits(spec, theta, X, Z)
        _exp_shifted(E, sums)
        # E[i, y_i] / sums[i]: division rounds correctly, so these are the
        # bits of the softmax's picked entries
        np.take(E, picked, out=out, mode="clip")  # picked is in range
        out /= sums
        yield _log_floored(out)


def log_likelihood_batch(spec, theta, X, y):
    """Per-record log p(label | features); probabilities floored at PROB_FLOOR."""
    return next(log_likelihood_rows(spec, [theta.values], X, y))


def _one_hot_residual(P, y):
    D = P.copy()
    D[np.arange(P.shape[0]), np.asarray(y)] -= 1.0
    return D


def _hidden_residual(spec, theta, H, D):
    """Residual at the MLP's hidden pre-activations."""
    return (D @ spec.layout().view(theta, "W2").T) * (1.0 - H * H)


def _backprop(spec, X, H, D, D1):
    """Flat gradient from output residuals D and, for the MLP (H given),
    hidden residuals D1; each row of D and D1 is one record's residual."""
    grad = np.empty(spec.num_params)
    view = spec.layout().view
    if H is None:
        view(grad, "W")[:] = np.asarray(X.T @ D)
        view(grad, "b")[:] = D.sum(axis=0)
    else:
        view(grad, "W2")[:] = H.T @ D
        view(grad, "b2")[:] = D.sum(axis=0)
        view(grad, "W1")[:] = np.asarray(X.T @ D1)
        view(grad, "b1")[:] = D1.sum(axis=0)
    return grad


def _forward(spec, theta, X, y):
    """One forward pass for the gradients: softmax probabilities P, the MLP's
    hidden activations H (None for the linear model) and each record's
    log-likelihood, as log_likelihood_rows computes it."""
    Z, H = _logits(spec, theta, X)
    P = _softmax(Z)
    return P, H, _log_floored(P[np.arange(P.shape[0]), np.asarray(y)])


def weighted_gradient_loglik(spec, theta, X, y, weights=None):
    """(weighted_nll_gradient's values, log_likelihood_batch's values) from
    one forward pass; the gradient is a fresh array the caller may reuse."""
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
    P, H, loglik = _forward(spec, theta, X, y)
    D = _one_hot_residual(P, y) * (weights / n)[:, None]
    D1 = None if H is None else _hidden_residual(spec, theta, H, D)
    grad = _backprop(spec, X, H, D, D1)
    if spec.weight_decay:
        grad += spec.weight_decay * theta
    return grad, loglik


def weighted_nll_gradient(spec, theta, X, y, weights=None):
    """Gradient of mean weighted NLL plus (weight_decay/2)*||theta||^2.

    The mean is over batch size, not over the weight total, so a small
    weight shrinks that record's pull without renormalizing the others.
    """
    grad, _ = weighted_gradient_loglik(spec, theta.values, X, y, weights)
    return ParameterVector(grad, theta.layout)


def _row_sq_norms(X):
    if sp.issparse(X):
        return np.asarray(X.multiply(X).sum(axis=1)).ravel()
    return (X * X).sum(axis=1)


def clipped_gradient_loglik(spec, theta, X, y, clip_norm):
    """(clipped_gradient_sum's values, its pre-clip norms, the batch's
    log_likelihood_batch values) from one forward pass; the gradient sum is
    a fresh array the caller may reuse."""
    X = _as_matrix(X)
    n = X.shape[0]
    if n == 0:
        raise ModelError("empty minibatch")
    P, H, loglik = _forward(spec, theta, X, y)
    D = _one_hot_residual(P, y)
    x_sq = _row_sq_norms(X)
    if H is None:
        D1 = None
        norms = np.sqrt((x_sq + 1.0) * (D * D).sum(axis=1))
    else:
        # D1 from the unscaled D: scaling first would round differently
        D1 = _hidden_residual(spec, theta, H, D)
        norms = np.sqrt((_row_sq_norms(H) + 1.0) * (D * D).sum(axis=1)
                        + (x_sq + 1.0) * (D1 * D1).sum(axis=1))
    scale = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))[:, None]
    grad = _backprop(spec, X, H, D * scale,
                     None if D1 is None else D1 * scale)
    return grad, norms, loglik


def clipped_gradient_sum(spec, theta, X, y, clip_norm):
    """Sum of per-example NLL gradients, each scaled by min(1, C/||g_i||).

    Per-example gradients of both families are per-layer rank-1, so the
    norms come from row norms without materializing n full gradients.
    Returns (gradient_sum as ParameterVector, per-example pre-clip norms).
    """
    grad, norms, _ = clipped_gradient_loglik(spec, theta.values, X, y,
                                             clip_norm)
    return ParameterVector(grad, theta.layout), norms


def objective(spec, theta, loglik, weights=None):
    """Mean weighted NLL plus the weight-decay penalty, from the batch's
    per-record log-likelihoods: the training objective of mean_nll."""
    if weights is None:
        data_term = -loglik.mean()
    else:
        data_term = -(np.asarray(weights) * loglik).sum() / loglik.shape[0]
    # ||theta||^2, taken even at zero decay (0 * inf is nan), lets the loss
    # check catch a non-finite theta entry that the logits never read
    return data_term + 0.5 * spec.weight_decay * float(theta @ theta)


def mean_nll(spec, theta, X, y, weights=None):
    """Mean weighted NLL plus the weight-decay penalty (training objective)."""
    return objective(spec, theta.values,
                     log_likelihood_batch(spec, theta, X, y), weights)
