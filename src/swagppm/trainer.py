"""Training loops: adaptive (AdamW-style), constant-lr SGD, and DP-SGD."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import models
from .params import ParameterVector

ADAPTIVE = "adaptive"
SGD_CONSTANT = "sgd-constant"
DP_SGD = "dp-sgd"

SHUFFLE_PARTITION = "shuffle-partition"
POISSON = "poisson"


class TrainError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str
    learning_rate: float
    batch_size: int
    epochs: int
    seed: int
    weight_decay: float = 0.0
    clip_norm: Optional[float] = None
    noise_multiplier: Optional[float] = None
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.optimizer not in (ADAPTIVE, SGD_CONSTANT, DP_SGD):
            raise TrainError("unknown optimizer %r" % self.optimizer)
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise TrainError("bad learning_rate/batch_size/epochs")
        if self.optimizer == DP_SGD:
            if not self.clip_norm or self.clip_norm <= 0:
                raise TrainError("dp-sgd requires clip_norm > 0")
            if self.noise_multiplier is None or self.noise_multiplier < 0:
                raise TrainError("dp-sgd requires noise_multiplier >= 0")


@dataclass
class EpochSnapshot:
    epoch: int
    theta: ParameterVector
    mean_train_loss: float


def sample_minibatches(n, batch_size, mode, rng, q=None):
    """Index batches for one epoch.

    shuffle-partition: a random permutation chopped into batch_size chunks.
    poisson: ceil(n / batch_size) batches, each including every record
    independently with probability q.
    """
    if mode == SHUFFLE_PARTITION:
        perm = rng.permutation(n)
        return [perm[b] for b in _partition(n, batch_size)]
    if mode == POISSON:
        if q is None or not (0 < q <= 1):
            raise TrainError("poisson sampling requires q in (0, 1]")
        steps = -(-n // batch_size)
        return [np.nonzero(rng.random(n) < q)[0] for _ in range(steps)]
    raise TrainError("unknown sampling mode %r" % mode)


def _partition(n, batch_size):
    """The row ranges of a shuffle-partition epoch, as slices."""
    return [slice(i, min(i + batch_size, n)) for i in range(0, n, batch_size)]


def dp_sgd_step(spec, theta, X, y, clip_norm, noise_multiplier, lr, noise_rng,
                denom=None):
    """One DP-SGD update: clip per-example gradients, add Gaussian noise.

    denom defaults to the realized batch size; the training loop passes the
    nominal batch size so the Poisson batch-size randomness does not leak
    into the scale of the update.
    """
    n = X.shape[0]
    if n == 0:
        raise TrainError("empty minibatch")
    grad_sum, _, _ = models.clipped_gradient_loglik(spec, theta, X, y,
                                                    clip_norm)
    return _dp_update(theta, grad_sum, clip_norm, noise_multiplier, lr,
                      noise_rng, n if denom is None else denom)


def _dp_update(theta, grad_sum, clip_norm, noise_multiplier, lr, noise_rng,
               denom):
    """theta - lr * (grad_sum + noise) / denom, built in the noise array."""
    noise = noise_rng.normal(0.0, noise_multiplier * clip_norm,
                             size=theta.layout.size)
    noise += grad_sum
    noise *= lr
    noise /= denom
    np.subtract(theta.values, noise, out=noise)
    return theta.replace(noise)


class _Adam:
    """AdamW state: the moments m and v and one scratch array, allocated
    once and updated in place in the textbook order of operations."""

    def __init__(self, size, config):
        self.config = config
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._scratch = np.empty(size)

    def update(self, theta, grad):
        """theta after one step on grad, which serves as scratch."""
        c, m, v, a = self.config, self.m, self.v, self._scratch
        self.t += 1
        m *= c.beta1
        np.multiply(grad, 1 - c.beta1, out=a)
        m += a
        v *= c.beta2
        np.multiply(grad, 1 - c.beta2, out=a)
        a *= grad
        v += a
        # step = lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1 - c.beta2 ** self.t, out=a)
        np.sqrt(a, out=a)
        a += c.adam_eps
        np.divide(m, 1 - c.beta1 ** self.t, out=grad)
        grad *= c.learning_rate
        grad /= a
        np.subtract(theta.values, grad, out=grad)
        if c.weight_decay:  # decoupled: lr * decay * theta
            np.multiply(theta.values, c.learning_rate * c.weight_decay, out=a)
            grad -= a
        return theta.replace(grad)


def train(spec, theta0, X, y, config, weights=None):
    """Run the configured optimizer; returns (theta_final, epoch snapshots).

    weights, when given, is the per-record alpha vector aligned with X rows
    and is applied through the weighted NLL gradient. Deterministic for a
    fixed seed: shuffle order, Poisson inclusion, and noise all come from
    streams derived from config.seed. Each step's loss is models.objective
    on the log-likelihoods of the forward pass its gradient makes.
    """
    n = X.shape[0]
    if config.batch_size > n:
        raise TrainError("batch_size %d exceeds dataset size %d"
                         % (config.batch_size, n))
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != n:
            raise TrainError("weights must cover every record in the view")
    shuffle_rng, noise_rng = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(2)]
    theta = theta0
    snapshots = []
    adam = _Adam(len(theta0), config) if config.optimizer == ADAPTIVE else None
    # the adaptive optimizer decays theta directly, so its gradient omits it
    grad_spec = _no_decay(spec) if config.optimizer == ADAPTIVE else spec
    y = np.asarray(y)
    for epoch in range(config.epochs):
        if config.optimizer == DP_SGD:
            batches = sample_minibatches(n, config.batch_size, POISSON,
                                         shuffle_rng, q=config.batch_size / n)
            Xe, ye, we = X, y, weights
        else:
            # permute the rows once, then take each batch as a row range:
            # the same rows in the same order as sample_minibatches' batches,
            # without fancy-indexing X per step. The last epoch's copy is
            # dropped first, so only one copy is held at a time.
            Xe = ye = we = None
            perm = shuffle_rng.permutation(n)
            batches = _partition(n, config.batch_size)
            Xe, ye = X[perm], y[perm]
            we = None if weights is None else weights[perm]
        loss_sum = 0.0
        count = 0
        for b, idx in enumerate(batches):
            if config.optimizer == DP_SGD and idx.size == 0:
                continue
            Xb, yb = Xe[idx], ye[idx]
            wb = None if we is None else we[idx]
            if config.optimizer == DP_SGD:
                grad, _, loglik = models.clipped_gradient_loglik(
                    spec, theta, Xb, yb, config.clip_norm)
            else:
                grad, loglik = models.weighted_gradient_loglik(
                    grad_spec, theta, Xb, yb, wb)
            loss = models.objective(spec, theta, loglik, wb)
            if not np.isfinite(loss):
                raise TrainError(
                    "non-finite loss %r at epoch %d batch %d" % (loss, epoch, b))
            loss_sum += loss * yb.shape[0]
            count += yb.shape[0]
            if config.optimizer == DP_SGD:
                theta = _dp_update(
                    theta, grad, config.clip_norm, config.noise_multiplier,
                    config.learning_rate, noise_rng, config.batch_size)
                if config.weight_decay:
                    theta = theta.scale(
                        1.0 - config.learning_rate * config.weight_decay)
            elif config.optimizer == SGD_CONSTANT:
                grad *= config.learning_rate  # theta - lr * grad, in grad
                theta = theta.replace(
                    np.subtract(theta.values, grad, out=grad))
            else:
                theta = adam.update(theta, grad)
        mean_loss = loss_sum / count if count else float("nan")
        snapshots.append(EpochSnapshot(epoch, theta, mean_loss))
    return theta, snapshots


def _no_decay(spec):
    """Adaptive optimizer uses decoupled decay, so the gradient omits it."""
    if spec.weight_decay == 0:
        return spec
    return models.ModelSpec(spec.family, spec.input_dim, spec.num_classes,
                            spec.hidden_dim, 0.0)
