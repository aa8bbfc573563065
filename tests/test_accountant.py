import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln, logsumexp

from swagppm import accountant

from conftest import run_package_script


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


@settings(max_examples=500, deadline=None)
@given(q=st.floats(0.0, 1.0),
       sigma=st.floats(*accountant.SIGMA_BRACKET),
       a=st.sampled_from(accountant.DEFAULT_ORDERS))
@example(q=0.0, sigma=1.0, a=2)
@example(q=1.0, sigma=0.3, a=64)
@example(q=512 / 10751, sigma=1.6334205627441407, a=64)
@example(q=512 / 1079, sigma=5.436673736572265, a=2)
@example(q=2.040669660301145e-282, sigma=1.0, a=2)  # the loop's is < 0
@example(q=0.01, sigma=2.0, a=1200)  # past the log k! table and 1000
def test_sgm_rdp_matches_per_k_loop(q, sigma, a):
    # the loop takes scipy's logsumexp, so this pins sgm_rdp's bits to it;
    # sgm_rdp clamps the loop's rounding below 0 at 0
    assert accountant.sgm_rdp(q, sigma, a) == max(0.0,
                                                  _sgm_rdp_loop(q, sigma, a))


@pytest.mark.floor_versions
def test_log_factorials_equal_scipy_gammaln():
    # the port of cephes' lgam takes the product branch below 13, the
    # Stirling series up to 1000 and its short form past it
    k = np.arange(3000)
    assert np.array_equal(accountant._log_factorials(2999), gammaln(k + 1))
    top = max(accountant.DEFAULT_ORDERS)
    assert np.array_equal(accountant._LOG_FACTORIALS, gammaln(k[:top + 1] + 1))


# Imports the package and its CLI, calibrates sigma at bench-default's DP-SGD
# schedule and generates a small corpus, then prints whether scipy.special
# was imported.
_NO_SCIPY_SPECIAL_RUN = """
import sys
import swagppm, swagppm.cli
from swagppm import accountant, data
accountant.calibrate_noise(4.0, 1e-4, 512 / 1079, 90)
data.generate(data.SyntheticSpec(5, 1.0, 300, 200, (5, 12), 0.8, 11, 256))
print("scipy.special" in sys.modules)
"""


def test_no_package_module_imports_scipy_special():
    run = run_package_script(_NO_SCIPY_SPECIAL_RUN)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=70)
       .flatmap(lambda xs: st.lists(st.sampled_from(xs), min_size=1,
                                    max_size=70)))
@example([0.0, 0.0, -1.0])
@example([-2.0, 5.0, 5.0, 5.0, 4.999])
@example([3.0])
@example([1e-300, -1e300])
@example([-745.0, 0.0, -0.5, 0.0, 1e-9])
def test_logsumexp_has_scipys_bits(terms):
    # terms drawn from a short list of values, so maxima are often tied
    terms = np.array(terms)
    assert accountant._logsumexp(terms) == logsumexp(terms)


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


def test_accountant_keeps_no_process_state(monkeypatch):
    # the same sweep twice in one process does the same accounting twice
    calls = []
    sgm_rdp = accountant.sgm_rdp

    def counted(*args):
        calls.append(args)
        return sgm_rdp(*args)

    monkeypatch.setattr(accountant, "sgm_rdp", counted)
    q, steps = 64 / 1000, 300
    deltas = [1e-4, 1e-3, 1e-2]
    runs = []
    for _ in range(2):
        calls.clear()
        runs.append(([accountant.calibrate_noise(4.0, d, q, steps)
                      for d in deltas], len(calls)))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0
    # a caller that writes to a returned ledger changes no later ledger
    first = accountant.compose(accountant.RdpLedger(q, 1.3), steps)
    want = first.eps_rdp.copy()
    first.eps_rdp[:] = -1.0
    again = accountant.compose(accountant.RdpLedger(q, 1.3), steps)
    assert (again.eps_rdp == want).all()


NAN = float("nan")
LEDGER = accountant.RdpLedger(0.1, 1.0)


@pytest.mark.parametrize("call, names", [
    pytest.param(lambda: accountant.calibrate_noise(NAN, 1e-4, 0.05, 100),
                 "target epsilon", id="nan-target"),
    pytest.param(lambda: accountant.RdpLedger(0.1, NAN),
                 "noise multiplier", id="nan-ledger-sigma"),
    pytest.param(lambda: accountant.RdpLedger(NAN, 1.0),
                 "sampling rate q", id="nan-ledger-q"),
    pytest.param(lambda: accountant.sgm_rdp(0.1, NAN, 3),
                 "sigma", id="nan-sigma"),
    pytest.param(lambda: accountant.sgm_rdp(NAN, 1.0, 3),
                 r"^q must lie in \[0, 1\]$", id="nan-sgm-q"),
    pytest.param(lambda: accountant.sgm_rdp(1.5, 1.0, 3),
                 r"^q must lie in \[0, 1\]$", id="sgm-q-above-one"),
    pytest.param(lambda: accountant.sgm_rdp(-0.1, 1.0, 3),
                 r"^q must lie in \[0, 1\]$", id="sgm-q-below-zero"),
    pytest.param(lambda: accountant.compose(LEDGER, 2.5),
                 "steps", id="fractional-compose-steps"),
    pytest.param(lambda: accountant.compose(LEDGER, True),
                 "steps", id="bool-compose-steps"),
    pytest.param(lambda: accountant.compose(LEDGER, -1),
                 "steps", id="negative-compose-steps"),
    pytest.param(lambda: accountant.calibrate_noise(4.0, 1e-4, 0.05, 2.5),
                 "steps", id="fractional-calibrate-steps"),
    pytest.param(lambda: accountant.calibrate_noise(4.0, NAN, 0.05, 100),
                 "delta", id="nan-delta"),
])
def test_accountant_rejects_nan_and_fractional_arguments(call, names):
    with pytest.raises(accountant.AccountantError, match=names):
        call()


# Bits recorded at numpy 2.4.6 and scipy 1.17.1; the floor-versions CI job
# checks that the oldest numpy and scipy the package allows give the same.
GOLDEN_SGM_RDP = [
    (512 / 1079, 0.3, 2, "0x1.33d8f07c24badp+3"),
    (512 / 1079, 1.1, 7, "0x1.041e71aecc6fap+1"),
    (512 / 1079, 4.0, 64, "0x1.43f210523d892p+0"),
    (512 / 10751, 0.75, 3, "0x1.afcc8a94e674cp-6"),
    (512 / 10751, 2.5, 32, "0x1.2049490d30453p-7"),
    (512 / 10751, 99.9, 64, "0x1.e82f951b9e79ep-18"),
    (0.001, 0.3, 64, "0x1.5c89c46b4924bp+8"),
    (0.05, 1.3, 40, "0x1.1860730b10e01p+3"),
    (0.5, 10.0, 17, "0x1.6b1b6b45f0b90p-6"),
    (1.0, 0.3, 2, "0x1.638e38e38e38ep+3"),
    (1.0, 3.0, 64, "0x1.c71c71c71c71cp+1"),
    (0.999, 0.5, 11, "0x1.5ffb7dfd42a98p+4"),
]

# (q, steps) of the DP-SGD schedules of perfbench's bench-default (1079
# train records) and dp-sweep-large (10751), target epsilon 4, and per
# delta the calibrated sigma and the epsilon it realizes
GOLDEN_CALIBRATIONS = {
    (512 / 1079, 90): [
        (1e-4, "0x1.5bf2766666666p+2", "0x1.ffedb73655272p+1"),
        (1e-3, "0x1.35bb666666666p+2", "0x1.ffecb6dcfe314p+1"),
        (1e-2, "0x1.0a5b500000000p+2", "0x1.fffac40516822p+1"),
        (0.1, "0x1.ae49866666667p+1", "0x1.ffe06793bf00fp+1"),
        (0.99, "0x1.2af1b33333332p+1", "0x1.ffbbaafde262bp+1"),
    ],
    (512 / 10751, 630): [
        (1e-4, "0x1.a227d9999999ap+0", "0x1.ffc36288b969cp+1"),
        (1e-3, "0x1.7b67b33333333p+0", "0x1.ffe2262b4d319p+1"),
        (1e-2, "0x1.502cffffffffep+0", "0x1.ffa256d9593f2p+1"),
        (0.1, "0x1.1dbdd9999999ap+0", "0x1.ff8054b59e17ap+1"),
        (0.99, "0x1.bb5a666666666p-1", "0x1.fed3b340f88b4p+1"),
    ],
}


@pytest.mark.floor_versions
def test_accountant_golden_bits():
    for q, sigma, a, want in GOLDEN_SGM_RDP:
        assert accountant.sgm_rdp(q, sigma, a).hex() == want, (q, sigma, a)
    for (q, steps), rows in GOLDEN_CALIBRATIONS.items():
        for delta, want_sigma, want_eps in rows:
            sigma = accountant.calibrate_noise(4.0, delta, q, steps)
            eps = accountant.to_dp(
                accountant.compose(accountant.RdpLedger(q, sigma), steps),
                delta).epsilon
            assert (sigma.hex(), eps.hex()) == (want_sigma, want_eps), \
                (q, steps, delta)


def test_calibrate_noises_composes_each_sigma_once(monkeypatch):
    # bench-default's schedule: the five deltas' bisections try 62 distinct
    # sigmas, which one calibrate_noise per delta composes 95 times, and the
    # budgets and a delta no sigma can meet try only sigmas composed already
    q, steps = 512 / 1079, 90
    deltas = [1e-4, 1e-3, 1e-2, 0.1, 0.99]
    composed = []
    compose = accountant.compose

    def counted(ledger, steps):
        composed.append(ledger.sigma)
        return compose(ledger, steps)

    monkeypatch.setattr(accountant, "compose", counted)
    got = accountant.calibrate_noises(4.0, deltas + [1e-300], q, steps)
    assert len(composed) == len(set(composed)) == 62
    monkeypatch.undo()
    for delta, (sigma, budget) in zip(deltas, got):
        assert sigma == accountant.calibrate_noise(4.0, delta, q, steps)
        assert budget == accountant.to_dp(
            accountant.compose(accountant.RdpLedger(q, sigma), steps), delta)
    assert isinstance(got[-1], accountant.AccountantError)
    with pytest.raises(accountant.AccountantError,
                       match=re.escape(str(got[-1]))):
        accountant.calibrate_noise(4.0, 1e-300, q, steps)


@pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1.2e-154, math.inf,
                                   1e155])
def test_sgm_rdp_names_a_sigma_whose_two_sigma_squared_leaves_range(sigma):
    # 2 sigma^2 under- or overflows, or 6 / (2 sigma^2) overflows: an
    # AccountantError naming sigma, and no numpy warning, whatever q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (0.0, 0.1, 1.0):
            with pytest.raises(accountant.AccountantError,
                               match=re.escape("sigma %r" % sigma)):
                accountant.sgm_rdp(q, sigma, 3)


@settings(max_examples=300, deadline=None)
@given(q=st.floats(0.0, 1.0),
       sigma=st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
       order=st.integers(2, 64))
@example(q=3.3403794540821996e-274, sigma=1.0, order=2)  # once -6.26e-287
def test_sgm_rdp_is_finite_or_raises_accountant_error(q, sigma, order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rdp = accountant.sgm_rdp(q, sigma, order)
        except accountant.AccountantError:
            return
    assert math.isfinite(rdp) and rdp >= 0
