"""Renyi-DP accounting for DP-SGD: subsampled Gaussian mechanism at integer
orders, additive composition, conversion to (epsilon, delta), and noise
calibration by bisection."""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .params import is_integer

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
        if not (self.sigma > 0):
            raise AccountantError("noise multiplier must be positive")
        if self.eps_rdp is None:
            self.eps_rdp = np.zeros(len(self.orders))


# cephes' Stirling series coefficients for log Gamma and its log(sqrt(2 pi))
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
             7.93650340457716943945E-4, -2.77777777730099687205E-3,
             8.33333333333331927722E-2)
_LOG_SQRT_2PI = 0.91893853320467274178


def _log_gamma(x):
    """log Gamma(x) at a positive integer x, with the bits of cephes' lgam,
    which scipy.special.gammaln calls: below 13 the log of the exact product
    (x-1)!, above it the Stirling series, in its short form from 1000 and
    without it past 1e8. math.log is libm's log, as cephes calls it."""
    if x < 13:
        return math.log(float(math.factorial(x - 1)))
    x = float(x)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a0, a1, a2, a3, a4 = _STIRLING
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


def _log_factorials(n):
    """log k! for k = 0..n."""
    return np.array([_log_gamma(k + 1) for k in range(n + 1)])


# log k! up to the largest default order; sgm_rdp computes a larger order's
# in the call
_LOG_FACTORIALS = _log_factorials(max(DEFAULT_ORDERS))


def _logsumexp(terms):
    """log(sum(exp(terms))) by scipy 1.17.1's logsumexp steps, so with its
    bits: the m maxima count as m, the rest as sum(exp(t - max)) / m. With
    it, sgm_rdp's bits rest on numpy's ufuncs and libm's log only."""
    top = terms.max()
    ties = terms == top
    m = np.count_nonzero(ties)
    rest = np.exp(np.where(ties, -np.inf, terms) - top).sum()
    return np.log1p(rest / m) + np.log(m) + top


def sgm_rdp(q, sigma, order):
    """RDP of one subsampled Gaussian step at an integer order a >= 2, the
    binomial expansion over the mixture with _logsumexp taking its log:
    (1/(a-1)) log sum_k C(a,k) (1-q)^(a-k) q^k exp(k(k-1)/(2 sigma^2)).
    A sigma whose 2 sigma^2 is not a normal float (an infinite sigma, or one
    so small that it underflows), or whose a(a-1)/(2 sigma^2) overflows,
    raises AccountantError naming it, as no term can be taken there. The
    result is never below 0."""
    if not (0 <= q <= 1):
        raise AccountantError("q must lie in [0, 1]")
    if not (sigma > 0):
        raise AccountantError("sigma must be positive")
    a = int(order)
    if a < 2 or a != order:
        raise AccountantError("order must be an integer >= 2")
    two_var = 2.0 * sigma * sigma
    if not (sys.float_info.min <= two_var < math.inf
            and a * (a - 1) / two_var < math.inf):
        raise AccountantError(
            "sigma %r out of range at order %d: 2 sigma^2 over- or "
            "underflows, or a(a-1)/(2 sigma^2) overflows" % (sigma, a))
    if q == 0:
        return 0.0
    # the terms of all k at once, each summed in the order of the formula;
    # log C(a, k) = log a! - log k! - log (a-k)! reads all three from log k!
    # over k = 0..a
    if q < 1:
        k = np.arange(a + 1)
        g = (_LOG_FACTORIALS[:a + 1] if a < _LOG_FACTORIALS.size
             else _log_factorials(a))
        log_terms = g[a] - g - g[::-1] + (a - k) * math.log1p(-q)
    else:  # q == 1: only the k == a term survives
        k = np.array([a])
        log_terms = np.zeros(1)
    total = _logsumexp(log_terms + k * math.log(q)
                       + k * (k - 1) / two_var)
    if not np.isfinite(total):
        raise AccountantError(
            "overflow in subsampled-Gaussian RDP at order %d" % a)
    # rounding in _logsumexp can leave a tiny q's total just below 0, where
    # the RDP of a mechanism never is
    return max(0.0, float(total) / (a - 1))


def compose(ledger, steps):
    """Ledger after `steps` additive compositions of the per-step RDP: sgm_rdp
    at each of the ledger's orders, computed anew on every call."""
    if not (is_integer(steps) and steps >= 0):
        raise AccountantError("steps must be a nonnegative integer")
    q, sigma, orders = ledger.q, ledger.sigma, ledger.orders
    per_step = np.array([sgm_rdp(q, sigma, a) for a in orders])
    return RdpLedger(q, sigma, steps, orders, steps * per_step)


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


def _calibrate(target_eps, delta, ledger_at):
    """calibrate_noise's bisection, reading each sigma's ledger from
    ledger_at(sigma)."""
    if not (target_eps > 0):
        raise AccountantError("target epsilon must be positive")
    lo, hi = SIGMA_BRACKET

    def eps_at(sigma):
        return to_dp(ledger_at(sigma), delta).epsilon

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


def calibrate_noises(target_eps, deltas, q, steps):
    """calibrate_noise at each delta of deltas: for each, (sigma, the
    DpBudget it realizes at delta) or the AccountantError its calibration
    raised. The bisections share one composed ledger per sigma, kept in a
    map that lives only for this call, so a sigma two deltas try is composed
    once, and each budget reads its sigma's ledger from the map: at the
    default config's five deltas, 62 compose calls, where five
    calibrate_noise calls make 95."""
    ledgers = {}

    def ledger_at(sigma):
        if sigma not in ledgers:
            ledgers[sigma] = compose(RdpLedger(q, sigma), steps)
        return ledgers[sigma]

    results = []
    for delta in deltas:
        try:
            sigma = _calibrate(target_eps, delta, ledger_at)
            results.append((sigma, to_dp(ledger_at(sigma), delta)))
        except AccountantError as e:
            results.append(e)
    return results


def calibrate_noise(target_eps, delta, q, steps):
    """Smallest sigma in SIGMA_BRACKET, to within SIGMA_TOL, whose composed
    budget at DEFAULT_ORDERS meets target_eps."""
    (result,) = calibrate_noises(target_eps, [delta], q, steps)
    if isinstance(result, AccountantError):
        raise result
    return result[0]


def ledger_to_dict(ledger):
    return {
        "q": ledger.q,
        "sigma": ledger.sigma,
        "steps": ledger.steps,
        "orders": list(ledger.orders),
        "eps_rdp": ledger.eps_rdp.tolist(),
    }
