import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, logsumexp

from swagppm import accountant


def test_sgm_rdp_no_sampling():
    assert accountant.sgm_rdp(0.0, 1.0, 5) == 0.0


def test_sgm_rdp_full_sampling_matches_gaussian():
    for sigma in (0.5, 1.0, 2.0, 4.0):
        for a in range(2, 33):
            got = accountant.sgm_rdp(1.0, sigma, a)
            want = a / (2.0 * sigma * sigma)
            assert got == pytest.approx(want, rel=1e-9)


def test_sgm_rdp_hand_value():
    want = math.log(0.99 ** 2 + 2 * 0.99 * 0.01 + 0.01 ** 2 * math.e)
    assert accountant.sgm_rdp(0.01, 1.0, 2) == pytest.approx(want, rel=1e-10)


def test_sgm_rdp_monotonicity_grid():
    qs = [0.0, 0.01, 0.1, 0.5, 1.0]
    sigmas = [0.5, 1.0, 2.0, 4.0]
    orders = range(2, 65)
    for sigma in sigmas:
        for a in orders:
            vals = [accountant.sgm_rdp(q, sigma, a) for q in qs]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
    for q in qs:
        for a in orders:
            vals = [accountant.sgm_rdp(q, sigma, a) for sigma in sigmas]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    for q in qs[1:]:
        for sigma in sigmas:
            vals = [accountant.sgm_rdp(q, sigma, a) for a in orders]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def _sgm_rdp_loop(q, sigma, a):
    # Reference: the per-k loop sgm_rdp used before the terms were built as
    # one array per order.
    if q == 0:
        return 0.0
    log_terms = []
    for k in range(a + 1):
        if q < 1:
            lt = (gammaln(a + 1) - gammaln(k + 1) - gammaln(a - k + 1)
                  + (a - k) * math.log1p(-q))
        elif k < a:
            continue
        else:
            lt = 0.0
        if k > 0:
            lt += k * math.log(q)
        lt += k * (k - 1) / (2.0 * sigma * sigma)
        log_terms.append(lt)
    return float(logsumexp(log_terms)) / (a - 1)


def test_sgm_rdp_matches_per_k_loop():
    sigmas = list(np.geomspace(0.3, 100.0, 12)) + [0.3 + 1e-3 * 7 / 9, 1.1,
                                                    2.0, 99.9]
    for q in (1e-3, 0.05, 512 / 10751, 512 / 1079, 0.5, 1.0):
        for sigma in sigmas:
            for a in range(2, 65):
                assert accountant.sgm_rdp(q, sigma, a) == \
                    _sgm_rdp_loop(q, sigma, a), (q, sigma, a)


def test_sgm_rdp_rejects_bad_order():
    with pytest.raises(accountant.AccountantError):
        accountant.sgm_rdp(0.1, 1.0, 1)


def test_compose_zero_steps():
    ledger = accountant.compose(accountant.RdpLedger(0.1, 1.0), 0)
    np.testing.assert_array_equal(ledger.eps_rdp, 0.0)


def test_compose_linearity():
    a = accountant.compose(accountant.RdpLedger(0.1, 2.0), 50)
    b = accountant.compose(accountant.RdpLedger(0.1, 2.0), 100)
    np.testing.assert_allclose(b.eps_rdp, 2 * a.eps_rdp, rtol=1e-14)


def test_compose_against_loop_oracle():
    ledger = accountant.compose(accountant.RdpLedger(0.1, 2.0), 1000)
    for j, a in enumerate(ledger.orders):
        acc = 0.0
        per = accountant.sgm_rdp(0.1, 2.0, a)
        for _ in range(1000):
            acc += per
        assert ledger.eps_rdp[j] == pytest.approx(acc, rel=1e-12)


def test_to_dp_single_order_hand_value():
    ledger = accountant.RdpLedger(1.0, 1.0, steps=1, orders=(2,),
                                  eps_rdp=np.array([1.0]))
    budget = accountant.to_dp(ledger, math.exp(-1.0))
    assert budget.epsilon == pytest.approx(2.0, rel=1e-12)
    assert budget.order == 2


def test_to_dp_delta_near_one():
    ledger = accountant.compose(accountant.RdpLedger(0.1, 2.0), 100)
    budget = accountant.to_dp(ledger, 1 - 1e-12)
    assert budget.epsilon == pytest.approx(float(ledger.eps_rdp.min()),
                                           abs=1e-9)


def test_to_dp_monotone_in_delta_and_steps():
    base = accountant.RdpLedger(0.1, 2.0)
    eps = [accountant.to_dp(accountant.compose(base, 500), d).epsilon
           for d in (1e-4, 1e-2, 0.1, 0.99)]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    eps_t = [accountant.to_dp(accountant.compose(base, t), 1e-4).epsilon
             for t in (10, 100, 1000)]
    assert all(a <= b for a, b in zip(eps_t, eps_t[1:]))


def test_calibrate_noise_dp_sgd_configuration():
    # the benchmark's DP-SGD budget: target epsilon 4 at delta 1e-4
    q, steps = 0.25, 120
    sigma = accountant.calibrate_noise(4.0, 1e-4, q, steps)

    def eps(s):
        return accountant.to_dp(
            accountant.compose(accountant.RdpLedger(q, s), steps),
            1e-4).epsilon

    assert eps(sigma) <= 4.0
    assert eps(sigma - 0.01) > 4.0


@settings(max_examples=40, deadline=None)
@given(target=st.floats(0.5, 10.0), log_delta=st.floats(-6.0, -1.0),
       q=st.floats(0.001, 0.5), steps=st.integers(1, 2000))
def test_calibrate_noise_returns_the_least_sigma_that_meets_the_target(
        target, log_delta, q, steps):
    delta = 10.0 ** log_delta

    def eps(sigma):
        return accountant.to_dp(
            accountant.compose(accountant.RdpLedger(q, sigma), steps),
            delta).epsilon

    lo, hi = accountant.SIGMA_BRACKET
    try:
        sigma = accountant.calibrate_noise(target, delta, q, steps)
    except accountant.AccountantError:
        assert eps(hi) > target  # raised only when no sigma meets it
        return
    assert eps(sigma) <= target
    assert sigma == lo or eps(sigma - 2 * accountant.SIGMA_TOL) > target


def test_calibrate_noise_q_zero_returns_bracket_min():
    sigma = accountant.calibrate_noise(4.0, 1e-4, 0.0, 1000)
    assert sigma == accountant.SIGMA_BRACKET[0]


def test_calibrate_noise_unattainable():
    with pytest.raises(accountant.AccountantError):
        accountant.calibrate_noise(1e-9, 1e-12, 1.0, 10**6)


def test_memoized_per_step_rdp_matches_uncached(monkeypatch):
    # the deltas of a sweep share their bisections' first sigmas
    q, steps = 64 / 1000, 300
    deltas = [1e-4, 1e-3, 1e-2]
    accountant._per_step_rdp.cache_clear()
    cached = [accountant.calibrate_noise(4.0, d, q, steps) for d in deltas]
    assert accountant._per_step_rdp.cache_info().hits > 0
    ledgers = [accountant.compose(accountant.RdpLedger(q, s), steps)
               for s in cached]
    monkeypatch.setattr(accountant, "_per_step_rdp",
                        accountant._per_step_rdp.__wrapped__)
    assert [accountant.calibrate_noise(4.0, d, q, steps)
            for d in deltas] == cached
    for sigma, ledger in zip(cached, ledgers):
        want = steps * np.array([accountant.sgm_rdp(q, sigma, a)
                                 for a in accountant.DEFAULT_ORDERS])
        assert (ledger.eps_rdp == want).all()


def test_memoized_per_step_rdp_is_not_shared_with_callers():
    q, sigma, steps = 0.01, 1.3, 100
    first = accountant.compose(accountant.RdpLedger(q, sigma), steps)
    want = first.eps_rdp.copy()
    first.eps_rdp[:] = -1.0
    again = accountant.compose(accountant.RdpLedger(q, sigma), steps)
    assert (again.eps_rdp == want).all()
    per_step = accountant._per_step_rdp(q, sigma, accountant.DEFAULT_ORDERS)
    assert not per_step.flags.writeable
