import csv
import os
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from swagppm import blas, models, pipeline, ppm, swag
from swagppm.params import ParameterVector

from conftest import random_instance, tiny_config, within_a_minute


FIXTURE_LL = np.array([[1.0, 4.0], [2.0, 3.0]])  # (draws, records)


def risks(abs_ll):
    """Per-record risks: the fold's per-record maxima with alpha all ones,
    as the first round takes them."""
    return ppm.sensitivity(abs_ll, np.ones(np.shape(abs_ll)[1])).per_record


def test_compute_risks_column_max():
    np.testing.assert_array_equal(risks(FIXTURE_LL), [2.0, 4.0])


def test_compute_risks_single_draw():
    np.testing.assert_array_equal(risks(FIXTURE_LL[:1]), FIXTURE_LL[0])


def test_compute_risks_monotone_in_draws():
    rng = np.random.default_rng(0)
    for _ in range(20):
        abs_ll = rng.uniform(0, 5, (6, 8))
        base = risks(abs_ll[:3])
        more = risks(abs_ll)
        assert np.all(more >= base)


def test_map_weights_hand_fixture():
    w = ppm.map_weights([0, 1, 2], [0.0, 5.0, 10.0], c=1.0, g=0.0)
    np.testing.assert_allclose(w.alpha, [1.0, 0.5, 0.0])
    np.testing.assert_allclose(w.normalized, [0.0, 0.5, 1.0])


def test_map_weights_extremes_default_config():
    # c=1, g=0: least risky record fully weighted, riskiest suppressed
    rng = np.random.default_rng(1)
    risks = rng.uniform(1, 9, 20)
    w = ppm.map_weights(np.arange(20), risks, 1.0, 0.0)
    assert w.alpha[np.argmin(risks)] == 1.0
    assert w.alpha[np.argmax(risks)] == 0.0


def test_map_weights_unweighted_reduction():
    w = ppm.map_weights([0, 1], [3.0, 9.0], c=0.0, g=1.0)
    np.testing.assert_array_equal(w.alpha, 1.0)


def test_map_weights_all_equal_risks():
    w = ppm.map_weights([0, 1, 2], [2.0, 2.0, 2.0], c=1.0, g=0.0)
    np.testing.assert_array_equal(w.normalized, 0.0)
    np.testing.assert_array_equal(w.alpha, 1.0)


@settings(max_examples=200, deadline=None)
@given(risks=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=30),
       c=st.floats(0.0, 3.0), g=st.floats(-2.0, 2.0))
def test_map_weights_properties(risks, c, g):
    w = ppm.map_weights(np.arange(len(risks)), risks, c, g)
    assert ((0.0 <= w.alpha) & (w.alpha <= 1.0)).all()
    # with c >= 0, a riskier record never gets more weight
    assert (np.diff(w.alpha[np.argsort(risks, kind="stable")]) <= 0).all()
    if min(risks) < max(risks):
        assert w.alpha[np.argmin(risks)] == np.clip(c + g, 0.0, 1.0)
        assert w.alpha[np.argmax(risks)] == np.clip(g, 0.0, 1.0)


def test_map_weights_needs_two_records():
    with pytest.raises(ppm.PpmError):
        ppm.map_weights([0], [1.0], 1.0, 0.0)


def test_sensitivity_hand_fixture():
    report = ppm.sensitivity(FIXTURE_LL, np.array([1.0, 0.5]))
    np.testing.assert_array_equal(report.per_record, [2.0, 2.0])
    assert report.delta == 2.0
    assert report.epsilon == 4.0
    assert report.num_draws == 2


def test_sensitivity_zero_weights():
    report = ppm.sensitivity(FIXTURE_LL, np.zeros(2))
    assert report.delta == 0.0
    assert report.epsilon == 0.0


def test_epsilon_is_twice_delta():
    report = ppm.sensitivity(np.array([[2.175]]), np.array([1.0]))
    assert report.epsilon == pytest.approx(4.35)


def test_sensitivity_monotone_in_alpha():
    rng = np.random.default_rng(2)
    for _ in range(20):
        abs_ll = rng.uniform(0, 5, (4, 6))
        a = rng.uniform(0, 1, 6)
        b = np.clip(a + rng.uniform(0, 0.5, 6), 0, 1)
        assert ppm.sensitivity(abs_ll, a).delta <= \
            ppm.sensitivity(abs_ll, b).delta + 1e-15


def test_sensitivity_scales_linearly():
    rng = np.random.default_rng(3)
    abs_ll = rng.uniform(0, 5, (4, 6))
    a = rng.uniform(0.1, 1, 6)
    base = ppm.sensitivity(abs_ll, a).delta
    for c in (0.25, 0.5, 1.0):
        assert ppm.sensitivity(abs_ll, c * a).delta == pytest.approx(
            c * base, rel=1e-12)


def test_sensitivity_draw_prefix_monotone():
    rng = np.random.default_rng(4)
    for _ in range(50):
        abs_ll = rng.uniform(0, 5, (8, 5))
        a = rng.uniform(0, 1, 5)
        full = ppm.sensitivity(abs_ll, a).delta
        for s in range(1, 9):
            assert ppm.sensitivity(abs_ll[:s], a).delta <= full + 1e-15


def test_reweight_hand_fixture():
    w = ppm.map_weights([0, 1], [0.0, 1.0], 1.0, 0.0)
    w.alpha = np.array([1.0, 0.5])
    report = ppm.sensitivity(FIXTURE_LL, w.alpha)
    rw = ppm.reweight(w, report, k=0.95)
    np.testing.assert_allclose(rw.alpha, [0.95, 0.475])
    assert rw.stage.startswith("reweighted")


def test_reweight_constant_risk_identity():
    rng = np.random.default_rng(5)
    abs_ll = rng.uniform(0.5, 4, (6, 10))
    alpha = rng.uniform(0.2, 0.9, 10)
    w = ppm.RiskWeights(np.arange(10), abs_ll.max(axis=0),
                        np.zeros(10), alpha, 1.0, 0.0)
    report = ppm.sensitivity(abs_ll, alpha)
    k = 0.95
    rw = ppm.reweight(w, report, k)
    new_report = ppm.sensitivity(abs_ll, rw.alpha)
    unclipped = rw.alpha < 1.0
    np.testing.assert_allclose(new_report.per_record[unclipped],
                               k * report.delta, rtol=1e-12)
    assert new_report.delta <= report.delta + 1e-15


def test_reweight_zero_risk_records_get_full_weight():
    abs_ll = np.array([[0.0, 3.0]])
    alpha = np.array([0.4, 0.5])
    w = ppm.RiskWeights(np.arange(2), abs_ll.max(axis=0), np.zeros(2),
                        alpha, 1.0, 0.0)
    rw = ppm.reweight(w, ppm.sensitivity(abs_ll, alpha), 0.9)
    assert rw.alpha[0] == 1.0


def test_reweight_rejects_zero_delta():
    w = ppm.RiskWeights(np.arange(2), np.zeros(2), np.zeros(2),
                        np.zeros(2), 1.0, 0.0)
    report = ppm.sensitivity(np.zeros((1, 2)), w.alpha)
    with pytest.raises(ppm.PpmError):
        ppm.reweight(w, report, 0.95)


def read_weights_csv(path):
    """The inverse of save_weights_csv, for its round trips: every row's
    id, risk, normalized risk and alpha, and the stage of the last row."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return ppm.RiskWeights(
        np.array([int(r["record_id"]) for r in rows], dtype=np.int64),
        *[np.array([float(r[column]) for r in rows])
          for column in ("risk", "normalized_risk", "alpha")],
        c=float("nan"), g=float("nan"), stage=rows[-1]["stage"])


def test_weights_csv_round_trip(tmp_path):
    w = ppm.map_weights([3, 7, 9], [0.5, 2.0, 1.0], 1.0, 0.1)
    path = tmp_path / "weights.csv"
    ppm.save_weights_csv(path, w)
    loaded = read_weights_csv(path)
    np.testing.assert_array_equal(loaded.record_ids, w.record_ids)
    np.testing.assert_array_equal(loaded.risks, w.risks)
    np.testing.assert_array_equal(loaded.alpha, w.alpha)
    assert loaded.stage == w.stage


def test_report_json_fields(tmp_path):
    report = ppm.sensitivity(FIXTURE_LL, np.array([1.0, 0.5]),
                             record_ids=[10, 11])
    path = tmp_path / "report.json"
    ppm.save_report_json(path, report)
    import json
    with open(path) as f:
        obj = json.load(f)
    assert obj["epsilon"] == 4.0
    assert obj["argmax_record_id"] in (10, 11)
    assert obj["num_draws"] == 2



def _matrix_sensitivity(abs_ll, alpha, record_ids):
    # Reference: the weighted maxima of the whole (S, n) matrix at once, as
    # sensitivity computed them before it folded over the rows.
    weighted = abs_ll * alpha[None, :]
    per_record = weighted.max(axis=0)
    i = int(per_record.argmax())
    return (float(per_record[i]), per_record, int(weighted[:, i].argmax()),
            int(record_ids[i]))


def _assert_reports_equal(a, b):
    assert (a.delta, a.epsilon, a.argmax_draw, a.argmax_record_id,
            a.num_draws) == (b.delta, b.epsilon, b.argmax_draw,
                             b.argmax_record_id, b.num_draws)
    np.testing.assert_array_equal(a.per_record, b.per_record)
    np.testing.assert_array_equal(a.record_ids, b.record_ids)


# few distinct values, so that maxima tie across draws and records
TIED = st.sampled_from([0.0, 0.25, 1.0, 3.5])


@st.composite
def score_grids(draw, cells=st.one_of(TIED, st.floats(0.0, 100.0))):
    S, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    abs_ll = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                    min_size=S, max_size=S)))
    alpha = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 0.3]),
                                   min_size=n, max_size=n)))
    ids = np.array(draw(st.permutations(range(100, 100 + n))))
    return abs_ll, alpha, ids


@settings(max_examples=200, deadline=None)
@given(grid=score_grids())
def test_stream_sensitivity_matches_matrix(grid):
    abs_ll, alpha, ids = grid
    streamed = ppm.sensitivity(iter(list(abs_ll)), alpha, ids)
    _assert_reports_equal(streamed, ppm.sensitivity(abs_ll, alpha, ids))
    delta, per_record, draw, record = _matrix_sensitivity(abs_ll, alpha, ids)
    assert (streamed.delta, streamed.argmax_draw,
            streamed.argmax_record_id) == (delta, draw, record)
    np.testing.assert_array_equal(streamed.per_record, per_record)
    assert streamed.num_draws == abs_ll.shape[0]
    assert streamed.epsilon == 2.0 * streamed.delta


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), S=st.integers(1, 12),
       zeros=st.lists(st.booleans(), min_size=8, max_size=8))
def test_streamed_draws_match_scored_matrix(seed, S, zeros):
    rng = np.random.default_rng(seed)
    spec, theta, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=4)
    X, y = np.vstack([X, X]), np.concatenate([y, y])  # repeated |ll|
    m = swag.SwagMoments(theta.layout, k_max=3)
    for _ in range(4):
        m.absorb(ParameterVector(
            theta.values + rng.normal(0, 0.1, theta.values.size),
            theta.layout))
    alpha = np.where(zeros, 0.0, rng.uniform(0, 1, 8))
    ids = np.arange(8) * 3
    streamed = ppm.sensitivity(
        ppm.abs_loglik_rows(spec, m.draws(S, seed), X, y), alpha, ids)
    _assert_reports_equal(streamed, ppm.sensitivity(
        ppm.abs_loglik_matrix(spec, [d.values for d in m.sample(S, seed)], X,
                              y), alpha, ids))


@settings(max_examples=100, deadline=None)
@given(grid=score_grids())
def test_stream_delta_never_decreases_with_draws(grid):
    abs_ll, alpha, ids = grid
    deltas = [ppm.sensitivity(abs_ll[:s], alpha, ids).delta
              for s in range(1, abs_ll.shape[0] + 1)]
    assert deltas == sorted(deltas)


@settings(max_examples=100, deadline=None)
@given(grid=score_grids(cells=st.one_of(TIED, st.floats(1e-3, 1e3))))
def test_stream_delta_scales_exactly_with_alpha(grid):
    abs_ll, alpha, ids = grid
    base = ppm.sensitivity(abs_ll, alpha, ids)
    for c in (2.0, 0.5):
        scaled = ppm.sensitivity(abs_ll, c * alpha, ids)
        assert scaled.delta == c * base.delta
        assert scaled.epsilon == 2.0 * scaled.delta
        np.testing.assert_array_equal(scaled.per_record, c * base.per_record)


@settings(max_examples=200, deadline=None)
@given(grid=score_grids(cells=st.integers(0, 3).map(float)),
       data=st.data())
def test_merged_folds_equal_the_in_order_fold(grid, data):
    # the rows are split over 1-4 folds in any assignment, each fold taking
    # its rows in draw order as a lane does; merging the folds in any order
    # gives the in-order fold's bits, ties between folds going to the lower
    # draw
    abs_ll, alpha, ids = grid
    S = abs_ll.shape[0]
    lanes = data.draw(st.integers(1, 4))
    lane_of = data.draw(st.lists(st.integers(0, lanes - 1), min_size=S,
                                 max_size=S))
    folds = [ppm.Fold(alpha) for _ in range(lanes)]
    for s in range(S):
        folds[lane_of[s]].add(s, abs_ll[s])
    merged = folds[0]
    for i in data.draw(st.permutations(range(1, lanes))):
        merged = merged.merge(folds[i])
    got, want = merged.report(ids), ppm.sensitivity(abs_ll, alpha, ids)
    assert (got.delta, got.argmax_draw, got.argmax_record_id,
            got.num_draws) == (want.delta, want.argmax_draw,
                               want.argmax_record_id, want.num_draws)
    assert got.per_record.tobytes() == want.per_record.tobytes()
    np.testing.assert_array_equal(merged.argmax_draw, [
        int(np.argmax(abs_ll[:, i] * alpha[i])) for i in range(len(alpha))])
    delta, per_record, draw, record = _matrix_sensitivity(abs_ll, alpha, ids)
    assert (got.delta, got.argmax_draw, got.argmax_record_id) \
        == (delta, draw, record)
    assert got.per_record.tobytes() == per_record.tobytes()


@pytest.mark.parametrize("rows, draw", [([[1.0, 1.0], [np.nan, 5.0]], 1),
                                        ([[np.nan, 5.0], [1.0, 1.0]], 0)])
def test_sensitivity_nan_row_raises_naming_its_draw(rows, draw):
    # a NaN after the first row used to drop out of the maxima (Delta 5)
    with pytest.raises(ppm.PpmError, match="draw %d " % draw):
        ppm.sensitivity(np.array(rows), np.ones(2))
    with pytest.raises(ppm.PpmError, match="draw %d " % draw):
        ppm.sensitivity(iter(np.array(rows)), np.ones(2))


def test_finite_draw_that_overflows_the_logits_raises():
    # p = 6; entries of +-1e308 are finite, but the logits overflow to inf
    # and inf - inf is NaN in the softmax
    spec = models.ModelSpec(models.SOFTMAX_LINEAR, 2, 2)
    draws = [np.zeros(6), np.array([1e308, -1e308, 1e308, -1e308, 0, 0])]
    X, y = np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ppm.PpmError, match="draw 1 "):
            ppm.sensitivity(ppm.abs_loglik_rows(spec, draws, X, y),
                            np.ones(2))


def test_stream_sensitivity_rejects_bad_input():
    with pytest.raises(ppm.PpmError):
        ppm.sensitivity(iter([]), np.ones(2))
    with pytest.raises(ppm.PpmError):
        ppm.sensitivity([np.ones(3)], np.ones(2))
    with pytest.raises(ppm.PpmError):
        ppm.sensitivity(np.ones(2), np.ones(2))


STAGES = st.sampled_from(["initial", "reweighted(k=0.95)",
                          "reweighted(k=0.5)"])


@st.composite
def risk_weights(draw, min_size=1):
    n = draw(st.integers(min_size, 6))
    ids = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n,
                        max_size=n))
    floats = [np.array(draw(st.lists(st.floats(allow_nan=False), min_size=n,
                                     max_size=n)), dtype=np.float64)
              for _ in range(3)]
    return ppm.RiskWeights(np.array(ids, dtype=np.int64), *floats, c=1.0,
                           g=0.0, stage=draw(STAGES))


def _assert_weights_equal(got, want, rows):
    np.testing.assert_array_equal(got.record_ids, want.record_ids[:rows])
    for name in ("risks", "normalized", "alpha"):  # bit for bit
        np.testing.assert_array_equal(
            getattr(got, name).view(np.uint64),
            getattr(want, name)[:rows].view(np.uint64))


@settings(max_examples=50, deadline=None)
@given(weights=risk_weights())
def test_weights_csv_round_trip_property(tmp_path_factory, weights):
    path = tmp_path_factory.mktemp("weights") / "w.csv"
    ppm.save_weights_csv(path, weights)
    loaded = read_weights_csv(path)
    _assert_weights_equal(loaded, weights, len(weights.record_ids))
    assert loaded.stage == weights.stage


def test_abs_loglik_matrix_rows_are_distinct_arrays():
    rng = np.random.default_rng(6)
    spec, theta, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=7)
    draws = [theta.replace(theta.values * c) for c in (0.5, 1.0, 2.0)]
    abs_ll = ppm.abs_loglik_matrix(spec, [d.values for d in draws], X, y)
    assert abs_ll.shape == (3, 7)
    for row, draw in zip(abs_ll, draws):
        np.testing.assert_array_equal(
            row, np.abs(models.log_likelihood_batch(spec, draw, X, y)))
    assert not np.array_equal(abs_ll[0], abs_ll[1])
    assert not np.array_equal(abs_ll[1], abs_ll[2])


@settings(max_examples=200, deadline=None)
@given(grid=score_grids(cells=st.one_of(TIED, st.floats(1e-3, 1e3))),
       k=st.floats(0.05, 0.99))
def test_reweighted_unclipped_risks_stay_within_k_delta(grid, k):
    abs_ll, alpha, ids = grid
    report = ppm.sensitivity(abs_ll, alpha, ids)
    if report.delta <= 0:
        return
    weights = ppm.RiskWeights(ids, abs_ll.max(axis=0), np.zeros(len(ids)),
                              alpha, 1.0, 0.0)
    rw = ppm.reweight(weights, report, k)
    after = ppm.sensitivity(abs_ll, rw.alpha, ids)
    unclipped = rw.alpha < 1.0
    # k * Delta up to rounding: max|ll| * (k * alpha * Delta / per_record)
    # and per_record = max|ll| * alpha round five times, k * Delta once, and
    # each rounding is within a unit roundoff, eps / 2
    bound = k * report.delta * (1 + 3 * np.finfo(float).eps)
    assert np.all(after.per_record[unclipped] <= bound)


@pytest.fixture(scope="module")
def round1():
    """(spec, X, y, round 1's moments) at the tiny config."""
    cfg = tiny_config()
    train, _ = pipeline.prepare_data(cfg)
    X, y = train.feature_matrix(), train.labels
    spec = pipeline.model_spec(cfg, train.num_classes, train.feature_dim)
    return spec, X, y, pipeline._train_round(
        spec, models.init_params(spec, 0), X, y, None, cfg, "round1")


def _alpha(n):
    return np.linspace(0.1, 1.0, n)


def _fold(spec, moments, seed, count, X, y, path=None):
    """posterior_sensitivity's report of count draws at seed, and with a
    path its .npy rows."""
    return ppm.posterior_sensitivity(spec, moments, seed, count, X, y,
                                     _alpha(len(y)), np.arange(len(y)), path)


def test_more_lanes_than_cores_hand_on_every_row_in_draw_order(
        round1, monkeypatch, tmp_path):
    # a lane that took a number or the stream outside the lock, or wrote a
    # row into another draw's slot, would change the report or the file; a
    # take that sleeps first and a thread switch every microsecond make
    # such an interleaving likely
    spec, X, y, moments = round1
    lanes = len(os.sched_getaffinity(0)) + 1
    count = 8 * lanes
    want_rows = ppm.abs_loglik_matrix(
        spec, [d.values for d in moments.sample(count, 5)], X, y)
    want = ppm.sensitivity(want_rows, _alpha(len(y)))
    monkeypatch.setattr(blas, "threads", lambda: lanes)
    take = swag.DrawMaker.take

    def yielding_take(self, z, z2):
        time.sleep(1e-5)  # another lane runs between a number and its normals
        take(self, z, z2)

    monkeypatch.setattr(swag.DrawMaker, "take", yielding_take)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _fold(spec, moments, 5, count, X, y, str(tmp_path / "ll.npy"))
    finally:
        sys.setswitchinterval(interval)
    assert (got.delta, got.argmax_draw, got.argmax_record_id,
            got.num_draws) == (want.delta, want.argmax_draw,
                               want.argmax_record_id, want.num_draws)
    assert got.per_record.tobytes() == want.per_record.tobytes()
    assert np.load(tmp_path / "ll.npy").tobytes() == want_rows.tobytes()


@pytest.mark.parametrize("lanes", [1, 2])
def test_fold_draws_allocate_nothing_per_draw(monkeypatch, lanes):
    # p = 9999 * 20 + 20 = 200000. Once the fold's buffers exist (from the
    # first draw's normals on), neither a fold of 20 draws nor one of 220
    # peaks as high as one p-sized bool array (a finite check through
    # np.isfinite(z).all() would make one per draw) above what it held
    # then, and the 200 more draws raise the peak by less than p // 4 bytes,
    # which 200 draws keeping 250 bytes each would reach. Scoring a draw makes
    # short-lived numpy temporaries (the logits' bias add alone takes 11 KB
    # on numpy 2.4), so at two lanes a peak moves by up to one lane's
    # temporaries, about 12 KB, as the lanes' steps happen to overlap or not.
    spec = models.ModelSpec(models.SOFTMAX_LINEAR, 9999, 20)
    p = spec.num_params
    X = sp.random(64, 9999, density=0.01, format="csr", random_state=3)
    y = np.random.default_rng(3).integers(0, 20, 64)
    moments = swag.SwagMoments(spec.layout(), k_max=4)
    rng = np.random.default_rng(0)
    moments.absorb(*(rng.normal(0, 0.1, p) for _ in range(4)))
    monkeypatch.setattr(blas, "threads", lambda: lanes)
    take = swag.DrawMaker.take
    held = []

    def measured_from_the_first_take(self, z, z2):
        if not held:
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
        take(self, z, z2)

    monkeypatch.setattr(swag.DrawMaker, "take", measured_from_the_first_take)

    def fold_peak(count):
        held.clear()
        _fold(spec, moments, 0, count, X, y)
        return tracemalloc.get_traced_memory()[1] - held[0]

    tracemalloc.start()
    try:
        peaks = [fold_peak(20), fold_peak(220)]
    finally:
        tracemalloc.stop()
    assert max(peaks) < p
    assert peaks[1] - peaks[0] < p // 4


class _CountedLock:
    """The fold's stream lock, counting the requests for it; the request
    numbered fail_before raises error before it holds the lock, once a
    later request came."""

    def __init__(self, fail_before=None, error=None):
        self._lock = threading.Lock()
        self._requested = threading.Condition()
        self.requests = 0
        self.fail_before, self.error = fail_before, error

    def __enter__(self):
        with self._requested:
            self.requests += 1
            request = self.requests
            self._requested.notify_all()
        if request == self.fail_before:
            self.wait_for(request + 1)
            raise self.error
        self._lock.acquire()

    def __exit__(self, *exc_info):
        self._lock.release()

    def wait_for(self, request):
        """Wait until the lock has been requested that many times."""
        with self._requested:
            assert self._requested.wait_for(
                lambda: self.requests >= request, 60)


@pytest.mark.parametrize("when", ["before its turn", "holding its turn",
                                  "after its turn"])
def test_a_lane_that_raises_releases_the_lanes_waiting_for_a_turn(
        round1, monkeypatch, tmp_path, when):
    # the lane that comes for draw 3 (the lock's fourth request) raises
    # before it holds the stream's lock, while it holds it (taking draw 3's
    # normals) or after it let it go (in draw 3's arithmetic), each once
    # the other lane has come for the lock again
    spec, X, y, moments = round1
    error = RuntimeError("lane failed")
    lock = _CountedLock(4 if when == "before its turn" else None, error)
    monkeypatch.setattr(ppm, "threading",
                        types.SimpleNamespace(Lock=lambda: lock))
    monkeypatch.setattr(blas, "threads", lambda: 2)
    take, finish = swag.DrawMaker.take, swag.DrawMaker.finish
    taken = []

    def fail_at_draw_3(s, step):
        if s == 3 and when == step:
            lock.wait_for(5)
            raise error

    def counting_take(self, z, z2):
        taken.append(len(taken))  # the draws take the stream in draw order
        fail_at_draw_3(taken[-1], "holding its turn")
        take(self, z, z2)

    def failing_finish(self, *args):
        fail_at_draw_3(args[-1], "after its turn")
        finish(self, *args)

    monkeypatch.setattr(swag.DrawMaker, "take", counting_take)
    monkeypatch.setattr(swag.DrawMaker, "finish", failing_finish)
    path = tmp_path / "ll.npy"
    before = threading.enumerate()
    assert within_a_minute(
        lambda: _fold(spec, moments, 3, 10, X, y, str(path))) is error
    assert not path.exists()
    assert threading.enumerate() == before


def test_an_interrupted_fold_stops_its_lanes(round1, monkeypatch, tmp_path):
    # Ctrl-C while this thread waits for the lanes ends the pool's join
    # early; draws 2 and 3, taken by then, wait until the fold has removed
    # its file, and then each lane stops before it takes another draw
    spec, X, y, moments = round1
    path = tmp_path / "ll.npy"
    take, finish = swag.DrawMaker.take, swag.DrawMaker.finish
    taken, four_taken, pools = [], threading.Event(), []

    class InterruptedJoin(ppm.ThreadPoolExecutor):
        def __exit__(self, *exc_info):
            pools.append(self)
            assert four_taken.wait(60)
            raise KeyboardInterrupt

    def counting_take(self, z, z2):
        taken.append(len(taken))
        if len(taken) == 4:
            four_taken.set()
        take(self, z, z2)

    def finish_once_the_file_is_gone(self, *args):
        deadline = time.monotonic() + 60
        while args[-1] >= 2 and path.exists():
            assert time.monotonic() < deadline
            time.sleep(1e-3)
        finish(self, *args)

    monkeypatch.setattr(ppm, "ThreadPoolExecutor", InterruptedJoin)
    monkeypatch.setattr(blas, "threads", lambda: 2)
    monkeypatch.setattr(swag.DrawMaker, "take", counting_take)
    monkeypatch.setattr(swag.DrawMaker, "finish",
                        finish_once_the_file_is_gone)
    with pytest.raises(KeyboardInterrupt):
        _fold(spec, moments, 3, 10, X, y, str(path))
    assert not path.exists()
    assert within_a_minute(pools[0].shutdown) is None
    assert taken == [0, 1, 2, 3]
