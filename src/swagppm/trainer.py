"""Training loops: adaptive (AdamW-style), constant-lr SGD, and DP-SGD."""

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models
from .params import ParameterVector, is_integer, is_number

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
    noise_multiplier: Optional[float] = None

    def __post_init__(self):
        """A field of the wrong type or out of range raises TrainError."""
        if self.optimizer not in (ADAPTIVE, SGD_CONSTANT, DP_SGD):
            raise TrainError("unknown optimizer %r" % self.optimizer)
        if not (is_number(self.learning_rate) and self.learning_rate > 0
                and is_integer(self.batch_size) and self.batch_size > 0
                and is_integer(self.epochs) and self.epochs >= 0):
            raise TrainError(
                "bad learning_rate %r, batch_size %r or epochs %r: need a "
                "rate > 0, an integer batch size > 0 and integer epochs >= 0"
                % (self.learning_rate, self.batch_size, self.epochs))
        if self.optimizer == DP_SGD:
            if not (is_number(self.clip_norm) and self.clip_norm > 0):
                raise TrainError("dp-sgd requires clip_norm > 0")
            if not (is_number(self.noise_multiplier)
                    and self.noise_multiplier >= 0):
                raise TrainError("dp-sgd requires noise_multiplier >= 0")


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


def _draw_noise(rng, scale, out):
    """out <- rng.normal(0.0, scale, out.size), bit for bit, drawn in place:
    numpy's normal computes loc + scale * z, so adding 0.0 after the
    product keeps its bits, a -0.0 at scale 0 turning +0.0 included."""
    rng.standard_normal(out=out)
    out *= scale
    out += 0.0
    return out


def train(spec, theta0, X, y, config, weights=None, on_epoch=None):
    """Run the configured optimizer; returns (theta_final, epoch losses),
    the final theta as a ParameterVector and each epoch's mean train loss.

    weights, when given, is the per-record alpha vector aligned with X rows
    and is applied through the weighted NLL gradient; weights outside
    [0, 1] raise ModelError before the first step. DP-SGD's clipped
    gradient has no weights, so it raises TrainError when given them. Weight
    decay is spec.weight_decay: the adaptive optimizer applies it decoupled
    from the gradient, as AdamW does, constant-lr SGD through the gradient of
    the penalty, and DP-SGD not at all, since its clipped gradients omit the
    penalty. Every optimizer's loss includes it. Deterministic for a fixed
    seed: shuffle order, Poisson inclusion, and noise all come from streams
    derived from config.seed.

    Each step takes its gradient and its loss, the batch's mean weighted
    NLL (models.nll_term), from one pass of models.gradient_into; a
    non-finite step loss raises TrainError naming the epoch and batch. An
    epoch's loss is the batch-size-weighted mean of its steps' losses plus
    models.decay_penalty at the epoch's final theta, so ||theta||^2 is taken
    once an epoch, not per step.

    The steps update one array in place, with the gradient, the noise and
    the decay term in buffers allocated once per call. A non-finite theta
    raises TrainError naming the epoch, from the check at the epoch's end,
    which sees every entry, also one the logits never read. After that
    check, on_epoch, when given, is called with the epoch's theta as a
    read-only flat array, valid only until the next step (copy it to keep
    it); a SWAG round passes SwagMoments.absorb. Only the final theta
    becomes a ParameterVector. A dense X is converted to CSR once, on entry.
    """
    X = models.as_csr(spec, X)
    n = X.shape[0]
    if config.batch_size > n:
        raise TrainError("batch_size %d exceeds dataset size %d"
                         % (config.batch_size, n))
    if weights is not None:
        if config.optimizer == DP_SGD:
            raise TrainError("dp-sgd takes no weights")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != n:
            raise TrainError("weights must cover every record in the view")
        models.check_weights(weights)
    shuffle_rng, noise_rng = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(2)]
    theta = theta0.values.copy()
    epoch_theta = theta.view()
    epoch_theta.flags.writeable = False
    losses = []
    dp = config.optimizer == DP_SGD
    adam = (_Adam(theta.size, config.learning_rate, spec.weight_decay)
            if config.optimizer == ADAPTIVE else None)
    # the adaptive and SGD steps add their decay here, as gradient_into
    # omits it; DP-SGD's clipped gradient has none
    decay = (np.empty(theta.size)
             if config.optimizer == SGD_CONSTANT and spec.weight_decay
             else None)
    grad = np.empty(theta.size)
    y = np.asarray(y)
    if dp:
        x_sq = models.row_sq_norms(X)  # indexed per Poisson batch
        scale = config.noise_multiplier * config.clip_norm
        # the step uses one buffer while the worker draws into the other
        buffers = [np.empty(theta.size), np.empty(theta.size)]
    # DP-SGD draws its noise on one worker thread, one step ahead: the next
    # step's draw runs while this step's gradient does. The worker calls
    # only noise_rng and the draws are taken in order, so the noise is the
    # serial stream; a step that fails waits for the draw in flight. A theta
    # entry gone non-finite mid-epoch may take inf - inf until the epoch's
    # check, so its TrainError, not numpy's warning, reports it.
    pool = ThreadPoolExecutor(max_workers=1) if dp else nullcontext()
    with pool, np.errstate(invalid="ignore"):
        if dp:
            pending = pool.submit(_draw_noise, noise_rng, scale, buffers[0])
        for epoch in range(config.epochs):
            Xe = None  # the last epoch's copy of X is dropped first
            if dp:
                # Poisson sampling: ceil(n / batch_size) batches, each taking
                # every record independently with probability batch_size / n
                q = config.batch_size / n
                batches = (np.nonzero(shuffle_rng.random(n) < q)[0]
                           for _ in range(-(-n // config.batch_size)))
            else:
                # a shuffle-partition epoch: permute the rows once, then take
                # each batch as a row range (a, b) of the permuted arrays,
                # which gradient_into reads in place
                perm = shuffle_rng.permutation(n)
                Xe, ye = X[perm], y[perm]
                we = None if weights is None else weights[perm]
                batches = [(a, min(a + config.batch_size, n))
                           for a in range(0, n, config.batch_size)]
            loss_sum = 0.0
            count = 0
            for b, batch in enumerate(batches):
                if dp:
                    m = batch.size
                    if m == 0:
                        continue  # takes no draw
                    noise = pending.result()
                    buffers.reverse()  # buffers[0] is now the free one
                    pending = pool.submit(_draw_noise, noise_rng, scale,
                                          buffers[0])
                    yb, wb = y[batch], None
                    _, loglik = models.gradient_into(
                        spec, theta, X[batch], (0, m), yb, grad,
                        clip_norm=config.clip_norm, x_sq=x_sq[batch])
                else:
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
                                     % (loss, epoch, b))
                loss_sum += loss * m
                count += m
                if dp:
                    _dp_update(theta, grad, noise, config.learning_rate,
                               config.batch_size)
                elif config.optimizer == SGD_CONSTANT:
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
            losses.append((loss_sum / count if count else float("nan"))
                          + models.decay_penalty(spec, theta))
            if on_epoch is not None:
                on_epoch(epoch_theta)
        if dp:
            pending.result()  # the draw made ahead for a step that never came
    return ParameterVector(theta, theta0.layout), losses
