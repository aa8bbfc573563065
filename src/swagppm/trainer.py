"""Training loops: adaptive (AdamW-style), constant-lr SGD, and DP-SGD."""

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from . import models
from .params import LayoutError, ParameterVector, is_integer, is_number

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


@dataclass
class EpochSnapshot:
    epoch: int
    theta: ParameterVector
    mean_train_loss: float


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


def train(spec, theta0, X, y, config, weights=None):
    """Run the configured optimizer; returns (theta_final, epoch snapshots).

    weights, when given, is the per-record alpha vector aligned with X rows
    and is applied through the weighted NLL gradient. DP-SGD's clipped
    gradient has no weights, so it raises TrainError when given them. Weight
    decay is spec.weight_decay: the adaptive optimizer applies it decoupled
    from the gradient, as AdamW does, constant-lr SGD through the gradient of
    the penalty, and DP-SGD not at all, since its clipped gradients omit the
    penalty. Every optimizer's loss includes it. Deterministic for a fixed
    seed: shuffle order, Poisson inclusion, and noise all come from streams
    derived from config.seed. Each step's loss is models.objective on the
    log-likelihoods of the forward pass its gradient makes.

    The steps update one array in place, and each epoch's snapshot is its
    one ParameterVector. A non-finite theta raises TrainError naming the
    epoch, from the next step's loss or from the epoch's snapshot.
    """
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
    shuffle_rng, noise_rng = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(2)]
    theta = theta0.values.copy()
    snapshots = []
    dp = config.optimizer == DP_SGD
    adam = (_Adam(theta.size, config.learning_rate, spec.weight_decay)
            if config.optimizer == ADAPTIVE else None)
    # the adaptive optimizer decays theta directly, so its gradient omits it
    grad_spec = (replace(spec, weight_decay=0.0)
                 if config.optimizer == ADAPTIVE else spec)
    y = np.asarray(y)
    if dp:
        x_sq = models.row_sq_norms(X)  # indexed per Poisson batch
        draw = partial(noise_rng.normal, 0.0,
                       config.noise_multiplier * config.clip_norm, theta.size)
    # DP-SGD draws its noise on one worker thread, one step ahead: the next
    # step's draw runs while this step's gradient does. The worker calls
    # only noise_rng and the draws are taken in order, so the noise is the
    # serial stream; a step that fails waits for the draw in flight.
    pool = ThreadPoolExecutor(max_workers=1) if dp else nullcontext()
    with pool:
        pending = pool.submit(draw) if dp else None
        for epoch in range(config.epochs):
            if dp:
                # Poisson sampling: ceil(n / batch_size) batches, each taking
                # every record independently with probability batch_size / n
                q = config.batch_size / n
                batches = [np.nonzero(shuffle_rng.random(n) < q)[0]
                           for _ in range(-(-n // config.batch_size))]
                Xe, ye, we = X, y, weights
            else:
                # a shuffle-partition epoch: permute the rows once, then take
                # each batch as a row range, without fancy-indexing X per
                # step. The last epoch's copy is dropped first, so only one
                # copy is held at a time.
                Xe = ye = we = None
                perm = shuffle_rng.permutation(n)
                batches = [slice(i, min(i + config.batch_size, n))
                           for i in range(0, n, config.batch_size)]
                Xe, ye = X[perm], y[perm]
                we = None if weights is None else weights[perm]
            loss_sum = 0.0
            count = 0
            for b, idx in enumerate(batches):
                if dp and idx.size == 0:
                    continue  # takes no draw
                Xb, yb = Xe[idx], ye[idx]
                wb = None if we is None else we[idx]
                if dp:
                    noise = pending.result()
                    pending = pool.submit(draw)
                    grad, _, loglik = models.clipped_gradient_loglik(
                        spec, theta, Xb, yb, config.clip_norm, x_sq[idx])
                else:
                    grad, loglik = models.weighted_gradient_loglik(
                        grad_spec, theta, Xb, yb, wb)
                loss = models.objective(spec, theta, loglik, wb)
                if not np.isfinite(loss):
                    raise TrainError("non-finite loss %r at epoch %d batch %d"
                                     % (loss, epoch, b))
                loss_sum += loss * yb.shape[0]
                count += yb.shape[0]
                if dp:
                    _dp_update(theta, grad, noise, config.learning_rate,
                               config.batch_size)
                elif config.optimizer == SGD_CONSTANT:
                    grad *= config.learning_rate
                    theta -= grad
                else:
                    adam.update(theta, grad)
            mean_loss = loss_sum / count if count else float("nan")
            try:
                snapshot = ParameterVector(theta, theta0.layout)
            except LayoutError as e:  # non-finite: the last step's update
                raise TrainError("epoch %d: %s" % (epoch, e)) from None
            snapshots.append(EpochSnapshot(epoch, snapshot, mean_loss))
        if dp:
            pending.result()  # the draw made ahead for a step that never came
    return (snapshots[-1].theta if snapshots else theta0), snapshots
