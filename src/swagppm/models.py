"""Small multiclass classifiers with hand-derived gradients.

Two families, a softmax-linear model and a one-hidden-layer tanh MLP, on
CSR features; the public batch functions convert and check a scipy sparse
matrix or a dense (n, d) array once, on entry (as_csr). Every sparse
product reads a row range (a, b) of a CSR matrix's arrays in place,
through scipy's compiled kernels as csr.sparsetools loads them from their
file without the scipy.sparse package, and writes into a given array
(_csr_matmul, _csr_t_matmul): no sparse matrix is built and no product
allocated. The functions the training and draw loops call
(log_likelihood_rows, gradient_into, decay_penalty) take theta as a flat
float64 array over spec.layout(); the others take a ParameterVector.
"""

from dataclasses import dataclass

import numpy as np

from . import csr
from .params import Layout, ParameterVector, is_finite, is_integer

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
        if not (is_finite(self.weight_decay) and self.weight_decay >= 0):
            raise ModelError("weight_decay must be finite and >= 0")
        # built once; a non-integer dimension raises LayoutError
        object.__setattr__(self, "_layout", Layout(
            [("W", (self.input_dim, self.num_classes)),
             ("b", (self.num_classes,))] if self.family == SOFTMAX_LINEAR
            else [("W1", (self.input_dim, self.hidden_dim)),
                  ("b1", (self.hidden_dim,)),
                  ("W2", (self.hidden_dim, self.num_classes)),
                  ("b2", (self.num_classes,))]))
        if self._layout.size > np.iinfo(np.intp).max // 8:
            raise ModelError("%d parameters are more than one float64 array "
                             "holds" % self._layout.size)

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


def as_csr(spec, features):
    """features as a csr.Matrix, converted and checked by csr.checked
    unless it is one; a width other than spec's input dim, or a matrix the
    kernels would read past the arrays or past W by (an index pointer or a
    column out of range), raises ModelError. Unsorted or repeated indices
    and non-finite values pass, as the kernels read them safely."""
    X = csr.checked(features, ModelError)
    if X.shape[1] != spec.input_dim:
        raise ModelError(
            "feature dim %d does not match input tensor dim %d (W)"
            % (X.shape[1], spec.input_dim))
    return X


def _check_out(X, a, b, out, shape, fits):
    """Raise ModelError unless rows a:b lie in X, fits holds and out is a
    C-contiguous float64 array of the given shape: the kernels write
    through out.ravel(), which would be a copy of any other out, and read
    past the end of a row range or operand of the wrong size."""
    if not (0 <= a <= b <= X.shape[0] and fits and out.shape == shape
            and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ModelError("a sparse product needs a C-contiguous float64 out "
                         "of shape %r, and rows and operands that fit X"
                         % (shape,))


# The two products below call the kernels scipy's own X @ W and X.T @ D run
# (csr_matvecs and csc_matvecs, as _matmul_multivector calls them, from
# scipy's _sparsetools extension, which csr.sparsetools loads from its file
# without the scipy.sparse package) on X's arrays, with indptr[a:b+1] over
# the whole indices and data: the kernels read global offsets, so nothing
# is rebased. A kernel adds into out, which is zero-filled first, as
# scipy's np.zeros result is, so out gets the bits of X[a:b] @ W or
# X[a:b].T @ D without a sparse matrix being built or a product allocated.

def _csr_matmul(X, rows, W, out):
    """out <- X[a:b] @ W for rows (a, b) of the CSR X."""
    a, b = rows
    _check_out(X, a, b, out, (b - a, W.shape[1]), W.shape[0] == X.shape[1])
    out.fill(0.0)
    csr.sparsetools.csr_matvecs(b - a, X.shape[1], W.shape[1],
                                X.indptr[a:b + 1], X.indices, X.data,
                                W.ravel(), out.ravel())
    return out


def _csr_t_matmul(X, rows, D, out):
    """out <- X[a:b].T @ D for rows (a, b) of the CSR X, whose arrays are
    read as those of its CSC transpose."""
    a, b = rows
    _check_out(X, a, b, out, (X.shape[1], D.shape[1]), D.shape[0] == b - a)
    out.fill(0.0)
    csr.sparsetools.csc_matvecs(X.shape[1], b - a, D.shape[1],
                                X.indptr[a:b + 1], X.indices, X.data,
                                D.ravel(), out.ravel())
    return out


def _hidden_buffer(spec, m):
    """A buffer for m rows of hidden activations, None for softmax-linear."""
    return (np.empty((m, spec.hidden_dim)) if spec.family == MLP_1_HIDDEN
            else None)


def _logits(spec, theta, X, rows, Z, H):
    """Logits of rows (a, b) of the CSR X, written into Z, and for the MLP
    its hidden activations, written into H (None for softmax-linear);
    returns (Z, H)."""
    view = spec.layout().view
    if spec.family == SOFTMAX_LINEAR:
        _csr_matmul(X, rows, view(theta, "W"), Z)
        Z += view(theta, "b")
        return Z, None
    _csr_matmul(X, rows, view(theta, "W1"), H)
    H += view(theta, "b1")
    np.tanh(H, out=H)
    np.matmul(H, view(theta, "W2"), out=Z)
    Z += view(theta, "b2")
    return Z, H


def _exp_shifted(Z, sums):
    """Z <- exp(Z - sums[:, None]) and sums <- its row sums, in place; sums
    holds the row max of Z on entry."""
    np.subtract(Z, sums[:, None], out=Z)
    np.exp(Z, out=Z)
    np.sum(Z, axis=1, out=sums)


def _running_row_max(Z, out):
    """out <- the row max of Z, as a running maximum over the columns. At
    many rows and few columns this beats np.max's per-row reduction, and a
    maximum is exact, so it equals np.max(Z, axis=1) under ==, NaN where
    that is NaN. Only the sign of a zero or NaN max may differ: exp(Z - max)
    does not see a zero's, and a NaN score means nothing by its sign
    (`ppm` takes |ll| and rejects a NaN)."""
    np.copyto(out, Z[:, 0])
    for column in Z.T[1:]:
        np.maximum(out, column, out=out)


def _softmax(Z):
    """Softmax of the rows of Z, computed in Z."""
    sums = np.max(Z, axis=1)
    _exp_shifted(Z, sums)
    Z /= sums[:, None]
    return Z


def _log_floored(picked):
    """log(max(picked, PROB_FLOOR)) in place: the one log-likelihood formula."""
    np.maximum(picked, PROB_FLOOR, out=picked)
    return np.log(picked, out=picked)


def forward_batch(spec, theta, X):
    """Softmax class probabilities for a batch, shape (n, num_classes),
    computed in row blocks (_row_blocks) that give it the bits of the whole
    batch, into the output and one block's hidden activations."""
    X = as_csr(spec, X)
    P = np.empty((X.shape[0], spec.num_classes))
    blocks = _row_blocks(spec, X)
    H = _hidden_buffer(spec, max(b - a for a, b in blocks))
    for a, b in blocks:
        _softmax(_logits(spec, theta.values, X, (a, b), P[a:b],
                         None if H is None else H[:b - a])[0])
    return P


# forward_batch and log_likelihood_rows score X in blocks of at least this
# many rows.
ROW_BLOCK = 2048


def _row_blocks(spec, X):
    """Row ranges (start, stop) covering the CSR X for forward_batch and
    log_likelihood_rows: as many blocks of at least ROW_BLOCK rows (more for
    a narrow MLP) as X has room for, of near equal length. The sparse
    product takes X row by row, so a block's rows get the bits they get in
    X @ W. For the MLP every block keeps H @ W2 on the OpenBLAS kernel of
    the whole product: one of at most 10**6 multiply-adds (rows * hidden *
    classes) takes the small-matrix kernel, whose bits differ, so a block
    has more rows than that whenever X does."""
    n = X.shape[0]
    size = ROW_BLOCK
    if spec.family == MLP_1_HIDDEN:
        size = max(size, 10 ** 6 // (spec.hidden_dim * spec.num_classes) + 1)
    # q blocks of base or base + 1 rows: the longest block, which sizes the
    # buffers, is as short as the rule allows
    q = max(1, n // size)
    base, extra = divmod(n, q)
    bounds = [i * base + min(i, extra) for i in range(q + 1)]
    return list(zip(bounds, bounds[1:]))


def log_likelihood_rows(spec, thetas, X, y):
    """Per-record log p(label | features) under each theta in turn, one
    length-n row per theta; probabilities floored at PROB_FLOOR.

    Each row is scored in row blocks (_row_blocks) that give it the bits
    of the whole batch. Every row is computed in the same buffers (a
    block's logits, hidden activations and row sums, and the output row),
    made by this call on the calling thread, so a row is valid only until
    the next one is made: copy it to keep it. A row keeps nothing; while a
    block is scored, each bias add broadcasts through numpy's iterator
    buffer, a temporary of at most 8192 floats (11344 B for a (64, 20)
    block, 66544 B for a (2150, 20) one, traced on numpy 2.4.6).
    """
    X = as_csr(spec, X)
    n, num_classes = X.shape[0], spec.num_classes
    y = np.asarray(y)
    blocks = _row_blocks(spec, X)
    # flat index of each record's label cell in its block's logits
    picked = [np.ravel_multi_index((np.arange(b - a), y[a:b]),
                                   (b - a, num_classes))
              for a, b in blocks]
    size = max(b - a for a, b in blocks)
    return _scored_rows(spec, thetas, X, blocks, picked,
                        np.empty((size, num_classes)),
                        _hidden_buffer(spec, size), np.empty(size),
                        np.empty(n))


def _scored_rows(spec, thetas, X, blocks, picked, Z, H, sums, out):
    for theta in thetas:
        for (a, b), cells in zip(blocks, picked):
            E = _logits(spec, theta, X, (a, b), Z[:b - a],
                        None if H is None else H[:b - a])[0]
            block_sums, row = sums[:b - a], out[a:b]
            _running_row_max(E, block_sums)
            _exp_shifted(E, block_sums)
            # E[i, y_i] / sums[i]: division rounds correctly, so these are
            # the bits of the softmax's picked entries
            np.take(E, cells, out=row, mode="clip")  # cells is in range
            row /= block_sums
        yield _log_floored(out)


def log_likelihood_batch(spec, theta, X, y):
    """Per-record log p(label | features); probabilities floored at PROB_FLOOR."""
    return next(log_likelihood_rows(spec, [theta.values], X, y))


def _hidden_residual(spec, theta, H, D):
    """Residual at the MLP's hidden pre-activations."""
    return (D @ spec.layout().view(theta, "W2").T) * (1.0 - H * H)


def _backprop(spec, X, rows, H, D, D1, out):
    """The flat gradient, written into out, from rows (a, b) of the CSR X,
    output residuals D and, for the MLP (H given), hidden residuals D1;
    each row of D and D1 is one record's residual."""
    view = spec.layout().view
    if H is None:
        _csr_t_matmul(X, rows, D, view(out, "W"))
        view(out, "b")[:] = D.sum(axis=0)
    else:
        np.matmul(H.T, D, out=view(out, "W2"))
        view(out, "b2")[:] = D.sum(axis=0)
        _csr_t_matmul(X, rows, D1, view(out, "W1"))
        view(out, "b1")[:] = D1.sum(axis=0)


def gradient_into(spec, theta, X, rows, y, out, scale=None, clip_norm=None,
                  x_sq=None):
    """The one backprop: a forward and backward pass over the batch of rows
    (a, b) of the CSR X, read in place from X's arrays, that writes the NLL
    gradient into out, a C-contiguous flat array over the layout, with no
    weight decay and no checks; y, x_sq and a scale column are the batch's,
    of length b - a. X[a:b].T @ D is written straight into out's W (or W1).
    Returns (the pre-clip norms or None, each record's log-likelihood as
    log_likelihood_rows computes it).

    Without clip_norm each record's residual is multiplied by scale, 1/n or
    an (n, 1) column of weights / n, before the hidden residual is taken:
    weighted_nll_gradient's gradient before its decay term. With clip_norm
    each record's gradient is scaled by min(1, clip_norm / its norm), the
    norms taken with x_sq, row_sq_norms of X: clipped_gradient_sum's
    gradient sum."""
    m = rows[1] - rows[0]
    Z, H = _logits(spec, theta, X, rows, np.empty((m, spec.num_classes)),
                   _hidden_buffer(spec, m))
    D = _softmax(Z)
    cells = (np.arange(D.shape[0]), np.asarray(y))
    loglik = _log_floored(D[cells])
    D[cells] -= 1.0  # the residual P - onehot(y), in place
    if clip_norm is None:
        D *= scale
    # a clipped D1 comes from the unscaled D: scaling first would round
    # differently
    D1 = None if H is None else _hidden_residual(spec, theta, H, D)
    norms = None
    if clip_norm is not None:
        if H is None:
            norms = np.sqrt((x_sq + 1.0) * (D * D).sum(axis=1))
        else:
            norms = np.sqrt((row_sq_norms(H) + 1.0) * (D * D).sum(axis=1)
                            + (x_sq + 1.0) * (D1 * D1).sum(axis=1))
        clip = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))[:, None]
        D *= clip
        if D1 is not None:
            D1 *= clip
    _backprop(spec, X, rows, H, D, D1, out)
    return norms, loglik


def check_weights(weights):
    """Raise ModelError unless every weight lies in [0, 1]; NaN does not."""
    if not (np.all(weights >= 0) and np.all(weights <= 1)):
        raise ModelError("weights must lie in [0, 1]")


def weighted_nll_gradient(spec, theta, X, y, weights=None):
    """Gradient of mean weighted NLL plus (weight_decay/2)*||theta||^2.

    The mean is over batch size, not over the weight total, so a small
    weight shrinks that record's pull without renormalizing the others.
    """
    X = as_csr(spec, X)
    n = X.shape[0]
    if n == 0:
        raise ModelError("empty batch")
    if weights is None:
        scale = 1.0 / n
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != n:
            raise ModelError("weights length does not match batch size")
        check_weights(weights)
        scale = (weights / n)[:, None]
    grad = np.empty(spec.num_params)
    gradient_into(spec, theta.values, X, (0, n), y, grad, scale)
    if spec.weight_decay:
        grad += spec.weight_decay * theta.values
    return ParameterVector(grad, theta.layout)


def row_sq_norms(X):
    """Each row's squared L2 norm, of a CSR X (a csr.Matrix, or a scipy
    sparse matrix that csr.checked converts) or of the MLP's dense hidden
    activations."""
    if isinstance(X, np.ndarray):
        return (X * X).sum(axis=1)
    return csr.row_sq_norms(csr.checked(X, ModelError))


def clipped_gradient_sum(spec, theta, X, y, clip_norm):
    """Sum of per-example NLL gradients, each scaled by min(1, C/||g_i||).

    Per-example gradients of both families are per-layer rank-1, so the
    norms come from row norms without materializing n full gradients.
    Returns (gradient_sum as ParameterVector, per-example pre-clip norms).
    """
    X = as_csr(spec, X)
    n = X.shape[0]
    if n == 0:
        raise ModelError("empty minibatch")
    grad = np.empty(spec.num_params)
    norms, _ = gradient_into(spec, theta.values, X, (0, n), y, grad,
                             clip_norm=clip_norm, x_sq=row_sq_norms(X))
    return ParameterVector(grad, theta.layout), norms


# OpenBLAS takes a dot this short on the calling thread. A longer one wakes
# its pool, whose thread then spins for a while after the call, and its
# bits depend on the thread count.
DOT_SLICE = 8192


def _sq_norm(theta):
    """||theta||^2 as a sum of dots over slices of at most DOT_SLICE
    entries; a theta that short is one dot, theta @ theta."""
    total = 0.0
    for start in range(0, theta.size, DOT_SLICE):
        part = theta[start:start + DOT_SLICE]
        total += float(part @ part)
    return total


def nll_term(loglik, weights=None):
    """A batch's mean weighted NLL from its per-record log-likelihoods: the
    data term of the training objective, over the batch size."""
    if weights is None:
        return -loglik.mean()
    return -(np.asarray(weights) * loglik).sum() / loglik.shape[0]


def decay_penalty(spec, theta):
    """The objective's weight-decay term, 0.5 * weight_decay * ||theta||^2,
    of a flat theta; 0.0 at weight decay 0, where ||theta||^2 is not taken,
    as it may overflow for a theta that is still finite."""
    if not spec.weight_decay:
        return 0.0
    return 0.5 * spec.weight_decay * _sq_norm(theta)


def mean_nll(spec, theta, X, y, weights=None):
    """Mean weighted NLL plus the weight-decay penalty (training objective)."""
    return (nll_term(log_likelihood_batch(spec, theta, X, y), weights)
            + decay_penalty(spec, theta.values))
