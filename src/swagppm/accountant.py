"""Renyi-DP accounting for DP-SGD: subsampled Gaussian mechanism at integer
orders, additive composition, conversion to (epsilon, delta), and noise
calibration by bisection."""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

DEFAULT_ORDERS = tuple(range(2, 65))


class AccountantError(ValueError):
    pass


@dataclass
class DpBudget:
    epsilon: float
    delta: float
    order: int = 0  # minimizing RDP order, for diagnostics


@dataclass
class RdpLedger:
    q: float
    sigma: float
    steps: int = 0
    orders: tuple = DEFAULT_ORDERS
    eps_rdp: np.ndarray = field(default=None)

    def __post_init__(self):
        if not (0 <= self.q <= 1):
            raise AccountantError("sampling rate q must lie in [0, 1]")
        if self.sigma <= 0:
            raise AccountantError("noise multiplier must be positive")
        if self.eps_rdp is None:
            self.eps_rdp = np.zeros(len(self.orders))


def sgm_rdp(q, sigma, order):
    """RDP of one subsampled Gaussian step at an integer order alpha >= 2.

    Binomial expansion over the mixture, evaluated in log space:
    (1/(a-1)) log sum_k C(a,k) (1-q)^(a-k) q^k exp(k(k-1)/(2 sigma^2)).
    """
    if not (0 <= q <= 1):
        raise AccountantError("q must lie in [0, 1]")
    if sigma <= 0:
        raise AccountantError("sigma must be positive")
    a = int(order)
    if a < 2 or a != order:
        raise AccountantError("order must be an integer >= 2")
    if q == 0:
        return 0.0
    # the terms of all k at once, each summed in the order of the formula
    if q < 1:
        k = np.arange(a + 1)
        log_terms = (gammaln(a + 1) - gammaln(k + 1) - gammaln(a - k + 1)
                     + (a - k) * math.log1p(-q))
    else:  # q == 1: only the k == a term survives
        k = np.array([a])
        log_terms = np.zeros(1)
    log_terms = (log_terms + k * math.log(q)
                 + k * (k - 1) / (2.0 * sigma * sigma))
    total = logsumexp(log_terms)
    if not np.isfinite(total):
        raise AccountantError(
            "overflow in subsampled-Gaussian RDP at order %d" % a)
    return float(total) / (a - 1)


def compose(ledger, steps):
    """Ledger after `steps` additive compositions of the per-step RDP."""
    if steps < 0:
        raise AccountantError("steps must be nonnegative")
    per_step = _per_step_rdp(ledger.q, ledger.sigma, tuple(ledger.orders))
    return RdpLedger(ledger.q, ledger.sigma, steps, ledger.orders,
                     steps * per_step)


@functools.lru_cache(maxsize=1024)
def _per_step_rdp(q, sigma, orders):
    """sgm_rdp at every order, memoized: the bisections of calibrate_noise
    for several deltas at one schedule revisit the same sigmas. Read-only,
    since every caller shares the cached array."""
    per_step = np.array([sgm_rdp(q, sigma, a) for a in orders])
    per_step.setflags(write=False)
    return per_step


def to_dp(ledger, delta):
    """Convert the ledger to (epsilon, delta)-DP, minimizing over orders."""
    if not (0 < delta < 1):
        raise AccountantError("delta must lie in (0, 1)")
    candidates = ledger.eps_rdp + math.log(1.0 / delta) / (
        np.array(ledger.orders) - 1.0)
    j = int(candidates.argmin())
    return DpBudget(float(candidates[j]), delta, order=int(ledger.orders[j]))


# calibrate_noise searches this sigma range to this width
SIGMA_BRACKET = (0.3, 100.0)
SIGMA_TOL = 1e-3


def calibrate_noise(target_eps, delta, q, steps):
    """Smallest sigma in SIGMA_BRACKET, to within SIGMA_TOL, whose composed
    budget at DEFAULT_ORDERS meets target_eps."""
    if target_eps <= 0:
        raise AccountantError("target epsilon must be positive")
    lo, hi = SIGMA_BRACKET

    def eps_at(sigma):
        return to_dp(compose(RdpLedger(q, sigma), steps), delta).epsilon

    if eps_at(lo) <= target_eps:
        return lo
    if eps_at(hi) > target_eps:
        raise AccountantError(
            "target epsilon %g unattainable for sigma in [%g, %g]"
            % (target_eps, lo, hi))
    while hi - lo > SIGMA_TOL:
        mid = 0.5 * (lo + hi)
        if eps_at(mid) <= target_eps:
            hi = mid
        else:
            lo = mid
    return hi


def ledger_to_dict(ledger):
    return {
        "q": ledger.q,
        "sigma": ledger.sigma,
        "steps": ledger.steps,
        "orders": list(ledger.orders),
        "eps_rdp": ledger.eps_rdp.tolist(),
    }
