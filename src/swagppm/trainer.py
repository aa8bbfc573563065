"""Training loops: adaptive (AdamW-style), constant-lr SGD, and DP-SGD."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models
from .params import ParameterVector, is_finite, is_integer, is_number

ADAPTIVE = "adaptive"
SGD_CONSTANT = "sgd-constant"
DP_SGD = "dp-sgd"

# the adaptive optimizer's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str
    learning_rate: float
    batch_size: int
    epochs: int
    seed: int
    clip_norm: Optional[float] = None

    def __post_init__(self):
        """A field of the wrong type or out of range raises TrainError."""
        if self.optimizer not in (ADAPTIVE, SGD_CONSTANT, DP_SGD):
            raise TrainError("unknown optimizer %r" % self.optimizer)
        if not (is_finite(self.learning_rate) and self.learning_rate > 0
                and is_integer(self.batch_size) and self.batch_size > 0
                and is_integer(self.epochs) and self.epochs >= 0):
            raise TrainError(
                "bad learning_rate %r, batch_size %r or epochs %r: need a "
                "finite rate > 0, integer batch size > 0 and epochs >= 0"
                % (self.learning_rate, self.batch_size, self.epochs))
        if self.optimizer == DP_SGD and not (is_finite(self.clip_norm)
                                             and self.clip_norm > 0):
            raise TrainError("dp-sgd requires clip_norm > 0 and finite")


def _dp_update(theta, grad_sum, noise, lr, denom):
    """One in-place DP-SGD update of the array theta from the clipped gradient
    sum and the step's drawn noise: theta -= lr * (grad_sum + noise) / denom,
    built in the noise array. The trainer passes the nominal batch size as
    denom, so the Poisson batch-size randomness does not leak into the scale
    of the update."""
    noise += grad_sum
    noise *= lr
    noise /= denom
    theta -= noise


class _Adam:
    """AdamW state: the moments m and v and one scratch array, allocated
    once and updated in place in the textbook order of operations."""

    def __init__(self, size, learning_rate, weight_decay):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._scratch = np.empty(size)

    def update(self, theta, grad):
        """One in-place step of the array theta on grad, the scratch."""
        lr, m, v, a = self.learning_rate, self.m, self.v, self._scratch
        self.t += 1
        m *= ADAM_BETA1
        np.multiply(grad, 1 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(grad, 1 - ADAM_BETA2, out=a)
        a *= grad
        v += a
        # step = lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1 - ADAM_BETA2 ** self.t, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, 1 - ADAM_BETA1 ** self.t, out=grad)
        grad *= lr
        grad /= a
        if self.weight_decay:  # decoupled: (theta - step) - lr * decay * theta
            np.multiply(theta, lr * self.weight_decay, out=a)
            theta -= grad
            theta -= a
        else:
            theta -= grad


def _draw_noise(rng, scales, outs):
    """outs[j] <- rng.normal(0.0, scales[j], outs[j].size) for every j, bit
    for bit, from one standard-normal draw into outs[0], made in place:
    numpy's normal computes loc + scale * z, so adding 0.0 after the product
    keeps its bits, a -0.0 at scale 0 turning +0.0 included. outs[0] holds z
    until it is scaled, last."""
    z = outs[0]
    rng.standard_normal(out=z)
    for scale, out in reversed(list(zip(scales, outs))):
        np.multiply(z, scale, out=out)
        out += 0.0
    return outs


def _check_batch_size(config, n):
    if config.batch_size > n:
        raise TrainError("batch_size %d exceeds dataset size %d"
                         % (config.batch_size, n))


def _rngs(config):
    """The shuffle (or Poisson inclusion) stream and the noise stream."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(config.seed).spawn(2)]


def _read_only(theta):
    view = theta.view()
    view.flags.writeable = False
    return view


def train(spec, theta0, X, y, config, weights=None, on_epoch=None):
    """Run the adaptive or constant-lr SGD optimizer; returns (theta_final,
    epoch losses), the final theta as a ParameterVector and each epoch's
    mean train loss. A DP-SGD config raises TrainError: DP-SGD trains
    through train_dp_sweep, which takes its noise multipliers.

    weights, when given, is the per-record alpha vector aligned with X rows
    and is applied through the weighted NLL gradient; weights outside
    [0, 1] raise ModelError before the first step. Weight decay is
    spec.weight_decay: the adaptive optimizer applies it decoupled from the
    gradient, as AdamW does, and constant-lr SGD through the gradient of the
    penalty; the loss includes it. Deterministic for a fixed seed: each
    epoch's shuffle comes from a stream derived from config.seed.

    Each step takes its gradient and its loss, the batch's mean weighted
    NLL (models.nll_term), from one pass of models.gradient_into; a
    non-finite step loss raises TrainError naming the epoch and batch. An
    epoch's loss is the batch-size-weighted mean of its steps' losses plus
    models.decay_penalty at the epoch's final theta, so ||theta||^2 is taken
    once an epoch, not per step.

    The steps update one array in place, with the gradient, the optimizer
    state and the decay term in buffers allocated once per call. A
    non-finite theta raises TrainError naming the epoch, from the check at
    the epoch's end, which sees every entry, also one the logits never
    read. After that check, on_epoch, when given, is called with the
    epoch's theta as a read-only flat array, valid only until the next step
    (copy it to keep it); a SWAG round passes SwagMoments.absorb. Only the
    final theta becomes a ParameterVector. A dense X is converted to CSR
    once, on entry. No thread is started.
    """
    if config.optimizer == DP_SGD:
        raise TrainError("train takes no dp-sgd config; DP-SGD trains "
                         "through train_dp_sweep")
    X = models.as_csr(spec, X)
    n = X.shape[0]
    _check_batch_size(config, n)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != n:
            raise TrainError("weights must cover every record in the view")
        models.check_weights(weights)
    shuffle_rng, _ = _rngs(config)
    theta = theta0.values.copy()
    epoch_theta = _read_only(theta)
    losses = []
    adam = (_Adam(theta.size, config.learning_rate, spec.weight_decay)
            if config.optimizer == ADAPTIVE else None)
    # the adaptive and SGD steps add their decay here, as gradient_into
    # omits it
    decay = (np.empty(theta.size)
             if config.optimizer == SGD_CONSTANT and spec.weight_decay
             else None)
    grad = np.empty(theta.size)
    y = np.asarray(y)
    # a step may overflow, or take inf - inf at an entry gone non-finite,
    # until the epoch's check: its TrainError, not numpy's warning, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            Xe = None  # the last epoch's copy of X is dropped first
            # a shuffle-partition epoch: permute the rows once, then take
            # each batch as a row range (a, b) of the permuted arrays, which
            # gradient_into reads in place
            perm = shuffle_rng.permutation(n)
            Xe, ye = X[perm], y[perm]
            we = None if weights is None else weights[perm]
            batches = [(a, min(a + config.batch_size, n))
                       for a in range(0, n, config.batch_size)]
            loss_sum = 0.0
            for b, batch in enumerate(batches):
                lo, hi = batch
                m = hi - lo
                yb = ye[lo:hi]
                wb = None if we is None else we[lo:hi]
                _, loglik = models.gradient_into(
                    spec, theta, Xe, batch, yb, grad,
                    1.0 / m if wb is None else (wb / m)[:, None])
                loss = models.nll_term(loglik, wb)
                if not np.isfinite(loss):
                    raise TrainError("non-finite loss %r at epoch %d batch %d"
                                     % (float(loss), epoch, b))
                loss_sum += loss * m
                if config.optimizer == SGD_CONSTANT:
                    if decay is not None:  # the penalty's gradient
                        np.multiply(theta, spec.weight_decay, out=decay)
                        grad += decay
                    grad *= config.learning_rate
                    theta -= grad
                else:
                    adam.update(theta, grad)
            if not np.isfinite(theta).all():  # every entry, once an epoch
                raise TrainError("epoch %d: theta has non-finite entries"
                                 % epoch)
            losses.append(loss_sum / n + models.decay_penalty(spec, theta))
            if on_epoch is not None:
                on_epoch(epoch_theta)
    return ParameterVector(theta, theta0.layout), losses


def train_dp_sweep(spec, theta0, X, y, config, noise_multipliers):
    """DP-SGD from theta0 at each sigma of noise_multipliers, trained in
    lockstep: for each sigma, (theta_final, epoch losses) as train returns
    them, or the TrainError that stopped that sigma alone (a non-finite
    step loss or epoch-end theta, with train's messages); the others keep
    the bits they have when trained alone. A sigma that is not a number
    >= 0, or a config whose optimizer is not DP-SGD, raises TrainError.
    DP-SGD takes no weights, as its clipped gradient has none, and no
    weight decay in its update, as that gradient omits the penalty; each
    epoch's loss includes it, as in train.

    The models share config.seed's streams. An epoch takes ceil(n /
    batch_size) Poisson batches, each holding every record with probability
    batch_size / n. Each step makes its batch's rows X[idx] (a new CSR
    matrix, whose rows (0, m) gradient_into reads), their ||x_i||^2 (from
    one row_sq_norms per call) and one standard-normal fill of p entries
    once; each sigma's noise is that draw times sigma * clip_norm, with the
    bits of Generator.normal (_draw_noise), and each model takes its own
    gradient_into and _dp_update. An empty batch takes its draw too, with a
    zero gradient, as the sampled Gaussian mechanism the accountant composes
    adds its noise at every step; an epoch's loss averages over the records
    its batches held.

    One worker thread (a one-worker ThreadPoolExecutor in a with block, so
    none outlives the call) makes and scales the next step's draw while this
    step's gradients run. It calls only the noise stream and the draws are
    taken in order, so the noise is the serial stream; a step that fails
    waits for the draw in flight. Each sigma holds its theta and two noise
    buffers; the gradient buffer is shared.
    """
    if config.optimizer != DP_SGD:
        raise TrainError("train_dp_sweep takes a dp-sgd config")
    for sigma in noise_multipliers:
        if not (is_number(sigma) and sigma >= 0):
            raise TrainError("dp-sgd requires noise multipliers >= 0, got %r"
                             % (sigma,))
    X = models.as_csr(spec, X)
    n = X.shape[0]
    _check_batch_size(config, n)
    k = len(noise_multipliers)
    if not k:
        return []
    shuffle_rng, noise_rng = _rngs(config)
    thetas = [theta0.values.copy() for _ in range(k)]
    results = [[] for _ in range(k)]  # the losses, or the TrainError
    live = list(range(k))
    scales = [sigma * config.clip_norm for sigma in noise_multipliers]
    # each step reads its noise from buffers[1] while the worker draws the
    # next step's into buffers[0]
    buffers = [[np.empty(theta0.values.size) for _ in range(k)]
               for _ in range(2)]
    grad = np.empty(theta0.values.size)
    y = np.asarray(y)
    x_sq = models.row_sq_norms(X)  # indexed per Poisson batch
    q = config.batch_size / n

    def fail(j, message):
        live.remove(j)
        results[j] = TrainError(message)

    def draw_ahead():
        return pool.submit(_draw_noise, noise_rng, [scales[j] for j in live],
                           [buffers[0][j] for j in live])

    # a step may overflow, or take inf - inf at an entry gone non-finite,
    # until the epoch's check: its TrainError, not numpy's warning, reports it
    with ThreadPoolExecutor(max_workers=1) as pool, \
            np.errstate(over="ignore", invalid="ignore"):
        pending = draw_ahead()
        for epoch in range(config.epochs):
            # Poisson sampling: ceil(n / batch_size) batches, each taking
            # every record independently with probability batch_size / n
            batches = (np.nonzero(shuffle_rng.random(n) < q)[0]
                       for _ in range(-(-n // config.batch_size)))
            loss_sums = [0.0] * k
            count = 0
            for b, batch in enumerate(batches):
                m = batch.size
                pending.result()
                buffers.reverse()
                pending = draw_ahead()
                Xb, yb, xb_sq = X[batch], y[batch], x_sq[batch]
                count += m
                for j in list(live):
                    # an empty batch's gradient is zero: its step is noise
                    _, loglik = models.gradient_into(
                        spec, thetas[j], Xb, (0, m), yb, grad,
                        clip_norm=config.clip_norm, x_sq=xb_sq)
                    if m:
                        loss = models.nll_term(loglik)
                        if not np.isfinite(loss):
                            fail(j, "non-finite loss %r at epoch %d batch %d"
                                 % (float(loss), epoch, b))
                            continue
                        loss_sums[j] += loss * m
                    _dp_update(thetas[j], grad, buffers[1][j],
                               config.learning_rate, config.batch_size)
                if not live:
                    break
            for j in list(live):
                if not np.isfinite(thetas[j]).all():  # every entry
                    fail(j, "epoch %d: theta has non-finite entries" % epoch)
                    continue
                results[j].append(
                    (loss_sums[j] / count if count else float("nan"))
                    + models.decay_penalty(spec, thetas[j]))
            if not live:
                break
        pending.result()  # the draw made ahead for a step that never came
    return [(ParameterVector(thetas[j], theta0.layout), results[j])
            if j in live else results[j] for j in range(k)]
