import ctypes.util
import functools
import gc
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from swagppm import blas, models, pipeline, ppm, swag, trainer
from swagppm.params import ParameterVector

from conftest import frozen_frame, large_instance, traced_peak


def tiny_config(seed=7, **phase_overrides):
    cfg = pipeline.load_config({"seed": seed})
    cfg["data"]["synthetic"].update(num_classes=6, total_records=400,
                                    vocab_size=300, feature_dim=256)
    cfg["phases"].update(finetune_epochs=3, swag_epochs=6, draws=40,
                         batch_size=32)
    cfg["dp_sgd"].update(epochs=5, batch_size=64)
    cfg["nonprivate"].update(epochs=5)
    return cfg


def test_load_config_rejects_unknown_keys():
    with pytest.raises(pipeline.ConfigError):
        pipeline.load_config({"bogus": 1})
    with pytest.raises(pipeline.ConfigError):
        pipeline.load_config({"phases": {"bogus": 1}})
    with pytest.raises(pipeline.ConfigError):
        pipeline.load_config({"schema_version": 99})


def test_load_config_merges_sections_key_by_key():
    cfg = pipeline.load_config({"data": {"synthetic": {"vocab_size": 7},
                                         "cap": 9}},
                               ["data.synthetic.num_classes=4"])
    synthetic = dict(pipeline.DEFAULT_CONFIG["data"]["synthetic"],
                     vocab_size=7, num_classes=4)
    assert cfg["data"]["synthetic"] == synthetic and cfg["data"]["cap"] == 9
    for obj, overrides in [({"model": 5}, []), ({"seed": {}}, []),
                           ({"data": {"synthetic": {"bogus": 1}}}, []),
                           ([], []), (None, ["data={}"]),
                           (None, ["data.synthetic=3"]),
                           (None, ["schema_version=2"])]:
        with pytest.raises(pipeline.ConfigError):
            pipeline.load_config(obj, overrides)


def test_load_config_overrides():
    cfg = pipeline.load_config(None, ["phases.draws=12", "seed=5"])
    assert cfg["phases"]["draws"] == 12
    assert cfg["seed"] == 5
    with pytest.raises(pipeline.ConfigError):
        pipeline.load_config(None, ["phases.bogus=1"])
    with pytest.raises(pipeline.ConfigError):
        pipeline.load_config(None, ["no-equals"])


def test_derive_seed_stable_and_distinct():
    a = pipeline.derive_seed(1, "x")
    assert a == pipeline.derive_seed(1, "x")
    assert a != pipeline.derive_seed(1, "y")
    assert a != pipeline.derive_seed(2, "x")


def test_swag_ppm_unweighted_reduction():
    # c=0, g=1 forces alpha = 1 everywhere; round 2 must reproduce a
    # weights-free round bit-exactly
    cfg = tiny_config()
    cfg["phases"].update(c=0.0, g=1.0)
    train, _ = pipeline.prepare_data(cfg)
    X, y = train.feature_matrix(), train.labels
    spec = pipeline.model_spec(cfg, train.num_classes, train.feature_dim)
    result = pipeline.run_swag_ppm(cfg, train)
    np.testing.assert_array_equal(result.weights.alpha, 1.0)
    from swagppm import models
    theta0 = models.init_params(spec, pipeline.derive_seed(cfg["seed"],
                                                           "init"))
    free = pipeline._train_round(spec, theta0, X, y, None, cfg, "round2")
    np.testing.assert_array_equal(result.moments.mean, free.mean)
    np.testing.assert_array_equal(result.moments.sq_mean, free.sq_mean)
    for a, b in zip(result.moments.dev_columns, free.dev_columns):
        np.testing.assert_array_equal(a, b)


def test_swag_ppm_epsilon_cross_check(tmp_path):
    cfg = tiny_config()
    out = str(tmp_path / "run")
    train, _ = pipeline.prepare_data(cfg)
    result = pipeline.run_swag_ppm(cfg, train, out_dir=out)
    abs_ll = np.load(os.path.join(out, "internal", "round2_abs_ll.npy"))
    report = ppm.sensitivity(abs_ll, result.weights.alpha, train.ids)
    assert result.epsilon == 2.0 * result.report.delta
    assert report.delta == result.report.delta
    assert report.epsilon == result.epsilon
    with open(os.path.join(out, "privacy_report.json")) as f:
        persisted = json.load(f)
    assert persisted["epsilon"] == result.epsilon


def test_swag_ppm_holds_no_draw_grid():
    # S draws of p float64 each would take S*p*8 bytes; the release
    # pipeline scores each draw as it is made, so its peak stays far below.
    cfg = tiny_config()
    cfg["phases"]["draws"] = 400
    train, _ = pipeline.prepare_data(cfg)
    spec = pipeline.model_spec(cfg, train.num_classes, train.feature_dim)
    grid_bytes = cfg["phases"]["draws"] * spec.num_params * 8
    tracemalloc.start()
    try:
        pipeline.run_swag_ppm(cfg, train, reweighted=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid_bytes / 2


def test_swag_round_peak_memory_does_not_grow_with_epochs():
    # the round holds one theta, whatever its fine-tune and SWAG epochs.
    # At rank 2 both rounds evict, and each eviction's overlapping column
    # shift makes a temporary of k - 1 columns, so that is in both peaks.
    spec, theta0, X, y = large_instance()
    peaks = []
    for epochs in (3, 30):
        cfg = tiny_config()
        cfg["phases"].update(finetune_epochs=epochs, swag_epochs=epochs,
                             batch_size=16, swag_rank=2)
        peaks.append(traced_peak(lambda: pipeline._train_round(
            spec, theta0, X, y, None, cfg, "round1")))
    assert abs(peaks[1] - peaks[0]) <= 8 * spec.num_params


def _frozen_moments_file(layout, k_max, snapshots):
    # Reference: the moments file of all of a round's snapshots collected
    # first, then absorbed in one call into a buffer of min(k_max, count)
    # columns, as rounds were absorbed before each epoch went in as it ended
    p = layout.size
    mean, sq_mean = np.zeros(p), np.zeros(p)
    dev = np.empty((p, min(k_max, len(snapshots))))
    k = 0
    for t, theta in enumerate(snapshots, start=1):
        mean += (theta - mean) / t
        sq_mean += (theta ** 2 - sq_mean) / t
        if k == dev.shape[1]:
            dev[:, :-1] = dev[:, 1:]
        else:
            k += 1
        dev[:, k - 1] = theta - mean
    head = {"layout": layout.to_json(), "count": len(snapshots),
            "k_max": k_max, "k": k}
    return frozen_frame(b"SWPPMSW1", head, b"".join(
        a.astype("<f8").tobytes() for a in (mean, sq_mean, dev.T)))


@pytest.mark.parametrize("swag_epochs", [3, 5, 8])
def test_streamed_round_writes_the_collected_rounds_moments(tmp_path,
                                                            swag_epochs):
    # swag_rank 5: fewer, as many and more epochs than columns
    cfg = tiny_config()
    cfg["phases"].update(swag_epochs=swag_epochs, swag_rank=5)
    train, _ = pipeline.prepare_data(cfg)
    X, y = train.feature_matrix(), train.labels
    spec = pipeline.model_spec(cfg, train.num_classes, train.feature_dim)
    theta0 = models.init_params(spec, 1)
    weights = np.random.default_rng(2).uniform(0, 1, len(train))
    moments = pipeline._train_round(spec, theta0, X, y, weights, cfg, "r")
    swag.save_moments(tmp_path / "moments.bin", moments)

    theta, _ = trainer.train(
        spec, theta0, X, y, pipeline._train_config(cfg, "finetune", "r/ft"),
        weights)
    snapshots = []
    trainer.train(spec, theta, X, y,
                  pipeline._train_config(cfg, "swag", "r/swag"), weights,
                  lambda values: snapshots.append(values.copy()))
    assert len(snapshots) == swag_epochs
    assert (tmp_path / "moments.bin").read_bytes() == _frozen_moments_file(
        spec.layout(), 5, snapshots)


def test_release_path_contains_only_the_released_draw(tmp_path):
    cfg = tiny_config()
    out = str(tmp_path / "run")
    train, _ = pipeline.prepare_data(cfg)
    result = pipeline.run_swag_ppm(cfg, train, out_dir=out)
    release_files = os.listdir(os.path.join(out, "release"))
    assert release_files == ["released_model.bin"]
    from swagppm.params import load_checkpoint
    released, _ = load_checkpoint(
        os.path.join(out, "release", "released_model.bin"))
    np.testing.assert_array_equal(released.values,
                                  result.released_theta.values)
    # internal draws never equal the released draw (distinct seed stream)
    draws = result.moments.sample(cfg["phases"]["draws"],
                                  pipeline.derive_seed(cfg["seed"], "draws2"))
    for d in draws:
        assert not np.array_equal(d.values, released.values)


def test_reweighted_run_shifts_weights_up():
    cfg = tiny_config()
    train, _ = pipeline.prepare_data(cfg)
    plain = pipeline.run_swag_ppm(cfg, train)
    rw = pipeline.run_swag_ppm(cfg, train, reweighted=True)
    assert rw.weights.stage.startswith("reweighted")
    # the stated goal: more weights close to 1 after reweighting
    assert rw.weights.alpha.mean() >= plain.weights.alpha.mean()


def test_reweight_constant_risk_scales_by_k():
    cfg = tiny_config()
    alpha = np.full(4, 0.5)
    w = ppm.RiskWeights(np.arange(4), np.ones(4), np.zeros(4), alpha,
                        1.0, 0.0)
    abs_ll = np.full((3, 4), 2.0)
    report = ppm.sensitivity(abs_ll, alpha)
    rw = ppm.reweight(w, report, cfg["phases"]["k"])
    np.testing.assert_allclose(rw.alpha, cfg["phases"]["k"] * alpha)


def test_benchmark_deterministic_and_reports(tmp_path):
    cfg = tiny_config()
    cfg["delta_sweep"] = [0.1, 0.99]
    out = str(tmp_path / "bench")
    rows1, sweep1, _ = pipeline.run_benchmark(cfg, out_dir=out)
    rows2, sweep2, _ = pipeline.run_benchmark(cfg)
    assert [r.name for r in rows1] == ["non-private", "swag-ppm",
                                       "swag-ppm-reweighted", "dp-sgd"]
    for a, b in zip(rows1 + sweep1, rows2 + sweep2):
        assert a.error is None and b.error is None
        assert a.weighted_f1 == b.weighted_f1
        assert a.macro_f1 == b.macro_f1
    # report files exist with the expected headers
    def header(name):
        with open(os.path.join(out, name)) as f:
            return f.readline().strip()

    assert header("summary.csv") == "model,epsilon,delta,f1_weighted,f1_macro"
    assert header("per_class.csv") == \
        "code,test_size,f1_nonprivate,f1_swagppm,f1_dpsgd"
    assert header("delta_sweep.csv") == \
        "method,target_epsilon,delta,f1_weighted,f1_macro"
    for name in ("summary.md", "manifest.json", "f1_by_class_size.csv",
                 "weight_density.csv"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["config"]["seed"] == cfg["seed"]
    assert "content_hash" in manifest["train_manifest"]


def test_phase_error_names_phase(monkeypatch):
    cfg = tiny_config()
    train, _ = pipeline.prepare_data(cfg)

    def boom(*args, **kwargs):
        raise RuntimeError("exploded")

    monkeypatch.setattr(pipeline, "_train_round", boom)
    with pytest.raises(pipeline.PhaseError) as err:
        pipeline.run_swag_ppm(cfg, train)
    assert err.value.phase == "swag-round-1"


def test_scoring_failure_removes_the_partial_score_file(monkeypatch,
                                                        tmp_path):
    cfg = tiny_config()
    train, _ = pipeline.prepare_data(cfg)
    rows = ppm.abs_loglik_rows

    def two_rows_then_fail(*args):
        for s, row in enumerate(rows(*args)):
            if s == 2:
                raise RuntimeError("scoring failed")
            yield row

    monkeypatch.setattr(ppm, "abs_loglik_rows", two_rows_then_fail)
    out = str(tmp_path / "run")
    with pytest.raises(pipeline.PhaseError) as err:
        pipeline.run_swag_ppm(cfg, train, out_dir=out)
    assert err.value.phase == "risks"
    assert os.listdir(os.path.join(out, "internal")) == []


def test_a_draw_that_scores_nan_fails_the_scoring_phase(monkeypatch):
    # round 1's third draw is finite, but its entries of 1e308 overflow the
    # logits, so some record's |ll| is NaN; Delta must not skip it
    cfg = tiny_config()
    train, _ = pipeline.prepare_data(cfg)
    spec = pipeline.model_spec(cfg, train.num_classes, train.feature_dim)
    overflowing = np.full(spec.num_params, 1e308)
    _overflowing_third_draw(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(models.log_likelihood_batch(
            spec, ParameterVector(overflowing, spec.layout()),
            train.feature_matrix(), train.labels)).any()
        with pytest.raises(pipeline.PhaseError) as err:
            pipeline.run_swag_ppm(cfg, train)
    assert err.value.phase == "risks"
    assert isinstance(err.value.cause, ppm.PpmError)
    assert "draw 2 " in str(err.value.cause)


@pytest.fixture
def two_blas_threads(set_blas_threads):
    """OpenBLAS at two threads, so the fold scores on two lanes."""
    set_blas_threads(2)


def _scoring_threads(monkeypatch):
    """For each call of abs_loglik_rows, one per lane, the thread that
    scored each of its rows."""
    calls = []
    rows = ppm.abs_loglik_rows

    def recording(*args):
        threads = []
        calls.append(threads)

        def recorded(scored):
            for row in scored:
                threads.append(threading.current_thread())
                yield row

        return recorded(rows(*args))

    monkeypatch.setattr(ppm, "abs_loglik_rows", recording)
    return calls


_train_round = pipeline._train_round


def _with_inf_mean(*args):
    moments = _train_round(*args)
    moments.mean[3] = np.inf
    return moments


def _overflowing_third_draw(monkeypatch):
    # every entry of draw 2 is 1e308, made in place by the draw's own step
    finish = swag.DrawMaker.finish

    def one_overflowing(self, z, *buffers_and_s):
        finish(self, z, *buffers_and_s)
        if buffers_and_s[-1] == 2:
            z.fill(1e308)

    monkeypatch.setattr(swag.DrawMaker, "finish", one_overflowing)


def _raise_in_a_lane(monkeypatch):
    # each lane's scoring raises at its second row
    raised = []
    rows = ppm.abs_loglik_rows

    def failing(*args):
        for s, row in enumerate(rows(*args)):
            if s == 1:
                error = RuntimeError("lane failed")
                raised.append((error, threading.current_thread()))
                raise error
            yield row

    monkeypatch.setattr(ppm, "abs_loglik_rows", failing)
    return raised


@pytest.mark.parametrize("path", ["normal", "non-finite draw", "nan row",
                                  "lane raises"])
def test_fold_lanes_keep_the_thread_rules(monkeypatch, two_blas_threads,
                                          tmp_path, path):
    # on every path no lane outlives run_swag_ppm, the BLAS thread count is
    # the one the process had, and a lane's exception is the phase's cause
    cfg = tiny_config()
    train, _ = pipeline.prepare_data(cfg)
    before = threading.enumerate()
    raised = []
    if path == "normal":
        calls = _scoring_threads(monkeypatch)
        pipeline.run_swag_ppm(cfg, train, str(tmp_path / "run"))
        # each round's 40 draws, taken by two lanes as they come, scored on
        # at most two threads other than this one
        assert len(calls) == 4
        assert [len(calls[0] + calls[1]), len(calls[2] + calls[3])] \
            == [40, 40]
        for lanes in (calls[:2], calls[2:]):
            threads = set(lanes[0] + lanes[1])
            assert len(threads) <= 2
            assert threading.main_thread() not in threads
    else:
        if path == "non-finite draw":
            monkeypatch.setattr(pipeline, "_train_round", _with_inf_mean)
            cause, message = swag.SwagError, "draw 0 is not finite"
        elif path == "nan row":
            _overflowing_third_draw(monkeypatch)
            cause, message = ppm.PpmError, "draw 2 "
        else:
            raised = _raise_in_a_lane(monkeypatch)
            cause, message = RuntimeError, "lane failed"
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(pipeline.PhaseError) as err:
            pipeline.run_swag_ppm(cfg, train, str(tmp_path / "run"))
        assert err.value.phase == "risks"
        assert isinstance(err.value.cause, cause)
        assert message in str(err.value.cause)
        assert os.listdir(tmp_path / "run" / "internal") == []
    if raised:  # both lanes raise; the first in draw order is the cause
        assert any(err.value.cause is e for e, _ in raised)
        assert threading.main_thread() not in [t for _, t in raised]
    assert threading.enumerate() == before
    assert blas.threads() == 2


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
    """_score_draws's report of count draws at seed, and with a path its
    .npy rows."""
    return pipeline._score_draws(spec, moments, seed, count, X, y,
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


def _within_a_minute(fn):
    """Run fn on a thread of its own, which must end within a minute (a
    lane left waiting for the stream would hang the fold's pool join); the
    exception fn raised, or None."""
    caught = []

    def run():
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - handed to the test
            caught.append(e)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(60)
    assert not thread.is_alive()
    return caught[0] if caught else None


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
    monkeypatch.setattr(pipeline, "threading",
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
    assert _within_a_minute(
        lambda: _fold(spec, moments, 3, 10, X, y, str(path))) is error
    assert not path.exists()
    assert threading.enumerate() == before


def test_the_lowest_failed_draw_on_the_lanes_is_the_phase_cause(
        monkeypatch, two_blas_threads):
    # draw 2 raises only once draw 3, which the other lane takes while
    # draw 2's lane waits, has raised
    cfg = tiny_config()
    train, _ = pipeline.prepare_data(cfg)
    errors = {}
    draw_3_raised = threading.Event()
    finish = swag.DrawMaker.finish

    def failing_finish(self, *args):
        s = args[-1]
        if s == 2:
            assert draw_3_raised.wait(60)
        if s >= 2:
            errors[s] = RuntimeError("draw %d failed" % s)
            if s == 3:
                draw_3_raised.set()
            raise errors[s]
        finish(self, *args)

    monkeypatch.setattr(swag.DrawMaker, "finish", failing_finish)
    before = threading.enumerate()
    err = _within_a_minute(lambda: pipeline.run_swag_ppm(cfg, train))
    assert isinstance(err, pipeline.PhaseError)
    assert err.phase == "risks"
    assert sorted(errors) == [2, 3]
    assert err.cause is errors[2]
    assert threading.enumerate() == before
    assert blas.threads() == 2


def test_an_interrupted_fold_stops_its_lanes(round1, monkeypatch, tmp_path):
    # Ctrl-C while this thread waits for the lanes ends the pool's join
    # early; draws 2 and 3, taken by then, wait until the fold has removed
    # its file, and then each lane stops before it takes another draw
    spec, X, y, moments = round1
    path = tmp_path / "ll.npy"
    take, finish = swag.DrawMaker.take, swag.DrawMaker.finish
    taken, four_taken, pools = [], threading.Event(), []

    class InterruptedJoin(pipeline.ThreadPoolExecutor):
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

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", InterruptedJoin)
    monkeypatch.setattr(blas, "threads", lambda: 2)
    monkeypatch.setattr(swag.DrawMaker, "take", counting_take)
    monkeypatch.setattr(swag.DrawMaker, "finish",
                        finish_once_the_file_is_gone)
    with pytest.raises(KeyboardInterrupt):
        _fold(spec, moments, 3, 10, X, y, str(path))
    assert not path.exists()
    assert _within_a_minute(pools[0].shutdown) is None
    assert taken == [0, 1, 2, 3]


def _missing_symbol(monkeypatch):
    # the lookup finds a library without OpenBLAS's thread controls
    monkeypatch.setattr(blas, "_controls",
                        functools.cache(blas._controls.__wrapped__))
    monkeypatch.setattr(blas.glob, "glob",
                        lambda pattern: [ctypes.util.find_library("c")])


def _wide_config():
    # p = 16384 * 6 + 6 = 98310 and k = 6: p * k is above
    # swag.GEMV_THREADED, so at two BLAS threads each draw's gemv comes in
    # two parts
    cfg = tiny_config()
    cfg["data"]["synthetic"]["feature_dim"] = 16384
    return cfg


def test_without_blas_controls_the_fold_runs_on_one_lane_with_the_same_bits(
        monkeypatch, two_blas_threads):
    cfg = _wide_config()
    train, _ = pipeline.prepare_data(cfg)
    want = pipeline.run_swag_ppm(cfg, train, reweighted=True)
    _missing_symbol(monkeypatch)
    started = []
    start = threading.Thread.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    assert blas.threads() == 1
    assert blas._controls() == ()
    got = pipeline.run_swag_ppm(cfg, train, reweighted=True)
    assert started == []
    monkeypatch.undo()
    assert blas.threads() == 2
    assert got.report.delta == want.report.delta
    assert got.report.per_record.tobytes() == want.report.per_record.tobytes()
    assert (got.report.argmax_draw, got.report.argmax_record_id) \
        == (want.report.argmax_draw, want.report.argmax_record_id)
    assert got.released_theta.values.tobytes() \
        == want.released_theta.values.tobytes()


# At the BLAS thread count the environment sets, prints whether (a) a
# moments' draws equal the draws with one whole np.matmul for the low-rank
# term, for p * k on both sides of swag.GEMV_THREADED, an odd p and k <
# k_max, and (b) a reweighted MLP release at n * hidden * classes > 10**6
# gives the same Delta, per_record, argmax and released theta on the lanes
# as on one lane without the BLAS controls.
_THREAD_COUNT_FOLD = """
import json
import numpy as np
from swagppm import blas, pipeline, swag
from swagppm.params import Layout, ParameterVector
gemv = []
for p in (65828, 65829, 66229):
    layout = Layout([("w", (p,))])
    m = swag.SwagMoments(layout, k_max=20)
    rng = np.random.default_rng(p)
    for _ in range(7):
        m.absorb(ParameterVector(rng.normal(0, 1, p), layout))
    rng = np.random.default_rng(0)
    z = rng.standard_normal(p) * np.sqrt(m.sigma_diag() / 2.0) + m.mean
    z += np.matmul(m._dev[:, :7], rng.standard_normal(7)) / np.sqrt(12.0)
    draws = m.draws(1, 0)
    with blas.one_thread():
        gemv.append(next(draws).tobytes() == z.tobytes())
cfg = pipeline.load_config({"seed": 5})
cfg["data"].update(cap=2000)
cfg["data"]["synthetic"].update(feature_dim=1024)
cfg["model"].update(family="mlp-1-hidden", hidden_dim=32)
cfg["phases"].update(finetune_epochs=2, swag_epochs=14, draws=12)
train, _ = pipeline.prepare_data(cfg)
assert len(train) * 32 * 20 > 10 ** 6
results = [pipeline.run_swag_ppm(cfg, train, reweighted=True)]
blas._controls = lambda: ()
results.append(pipeline.run_swag_ppm(cfg, train, reweighted=True))
a, b = (r.report for r in results)
print(json.dumps({"gemv": gemv, "fold": [
    a.delta == b.delta, a.per_record.tobytes() == b.per_record.tobytes(),
    (a.argmax_draw, a.argmax_record_id) == (b.argmax_draw,
                                            b.argmax_record_id),
    results[0].released_theta.values.tobytes()
    == results[1].released_theta.values.tobytes()]}))
"""


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_lane_fold_equals_one_lane_fold_at_each_blas_thread_count(threads):
    src = os.path.dirname(os.path.dirname(os.path.abspath(models.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(
                       os.pathsep)))
    out = json.loads(subprocess.run(
        [sys.executable, "-c", _THREAD_COUNT_FOLD], env=env, check=True,
        capture_output=True, text=True).stdout)
    assert out == {"gemv": [True] * 3, "fold": [True] * 4}


def _files(root):
    """{relative path: bytes} of every file under root."""
    out = {}
    for d, _, names in os.walk(root):
        for name in names:
            path = os.path.join(d, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_benchmark_trains_each_shared_round_once(monkeypatch):
    cfg = tiny_config()
    cfg["delta_sweep"] = []
    calls = []
    train_round = pipeline._train_round

    def spy(*args):
        calls.append(args[-1])
        return train_round(*args)

    monkeypatch.setattr(pipeline, "_train_round", spy)
    rows, _, _ = pipeline.run_benchmark(cfg)
    assert all(row.error is None for row in rows)
    assert calls == ["round1", "round2", "round3"]


def test_benchmark_swag_rows_equal_separate_releases(tmp_path):
    cfg = tiny_config()
    cfg["delta_sweep"] = []
    bench_out = str(tmp_path / "bench")
    _, _, aux = pipeline.run_benchmark(cfg, out_dir=bench_out)
    train, _ = pipeline.prepare_data(cfg)
    for key, reweighted in (("swag_ppm", False), ("swag_ppm_rw", True)):
        out = str(tmp_path / key)
        alone = pipeline.run_swag_ppm(cfg, train, out_dir=out,
                                      reweighted=reweighted)
        shared = aux[key]
        assert (shared.released_theta.values
                == alone.released_theta.values).all()
        assert shared.report.delta == alone.report.delta
        assert shared.epsilon == alone.epsilon
        assert (shared.weights.alpha == alone.weights.alpha).all()
        assert shared.weights.stage == alone.weights.stage
        want = _files(out)
        assert len(want) == (10 if reweighted else 7)
        assert _files(os.path.join(bench_out, key)) == want


def test_no_round_outlives_the_next_rounds_training(monkeypatch):
    cfg = tiny_config()
    train, _ = pipeline.prepare_data(cfg)
    train_round = pipeline._train_round
    earlier = []

    def spy(*args):
        gc.collect()
        assert all(ref() is None for ref in earlier)
        moments = train_round(*args)
        earlier.append(weakref.ref(moments))
        return moments

    monkeypatch.setattr(pipeline, "_train_round", spy)
    res = pipeline.run_swag_ppm(cfg, train, reweighted=True)
    assert len(earlier) == 3 and earlier[-1]() is res.moments


def test_benchmark_writes_each_round_artefact_once(monkeypatch, tmp_path):
    cfg = tiny_config()
    cfg["delta_sweep"] = []
    calls = []
    for module, name in ((swag, "save_moments"), (ppm, "save_weights_csv")):
        def spy(path, obj, _save=getattr(module, name), _name=name):
            calls.append(_name)
            return _save(path, obj)
        monkeypatch.setattr(module, name, spy)
    rows, _, _ = pipeline.run_benchmark(cfg, out_dir=str(tmp_path / "b"))
    assert all(row.error is None for row in rows)
    assert calls.count("save_moments") == 3
    assert calls.count("save_weights_csv") == 2


def test_failed_copy_fails_only_the_plain_row(monkeypatch, tmp_path):
    cfg = tiny_config()
    cfg["delta_sweep"] = []

    def fail(*args, **kwargs):
        raise OSError("copy failed")

    monkeypatch.setattr(shutil, "copytree", fail)
    bench_out = str(tmp_path / "bench")
    rows, _, aux = pipeline.run_benchmark(cfg, out_dir=bench_out)
    by_name = {row.name: row for row in rows}
    assert by_name["swag-ppm"].error == "copy failed"
    assert by_name["swag-ppm-reweighted"].error is None
    assert "swag_ppm" not in aux
    train, _ = pipeline.prepare_data(cfg)
    alone = str(tmp_path / "alone")
    pipeline.run_swag_ppm(cfg, train, out_dir=alone, reweighted=True)
    assert _files(os.path.join(bench_out, "swag_ppm_rw")) == _files(alone)
    # the weight density comes from the rounds, not the failed release
    monkeypatch.undo()
    unpatched = str(tmp_path / "unpatched")
    pipeline.run_benchmark(cfg, out_dir=unpatched)
    density = "weight_density.csv"
    assert os.path.exists(os.path.join(bench_out, density))
    assert _files(bench_out)[density] == _files(unpatched)[density]


def test_benchmark_rerun_copies_only_rounds_1_and_2(tmp_path):
    cfg = tiny_config()
    cfg["delta_sweep"] = []
    bench_out = str(tmp_path / "bench")
    for _ in range(2):  # the second run finds round 3's files in place
        pipeline.run_benchmark(cfg, out_dir=bench_out)
    train, _ = pipeline.prepare_data(cfg)
    alone = str(tmp_path / "alone")
    pipeline.run_swag_ppm(cfg, train, out_dir=alone)
    assert _files(os.path.join(bench_out, "swag_ppm")) == _files(alone)


def test_reweighting_failure_names_its_phase():
    cfg = tiny_config()
    cfg["phases"].update(c=0.0, g=0.0)  # every alpha 0, so Delta is 0
    cfg["delta_sweep"] = []
    rows, _, _ = pipeline.run_benchmark(cfg)
    by_name = {row.name: row for row in rows}
    assert by_name["swag-ppm"].error is None
    assert by_name["swag-ppm-reweighted"].error == (
        "phase 'reweight' failed: reweighting undefined when Delta is zero")


def test_failed_shared_round_fails_both_swag_rows(monkeypatch):
    cfg = tiny_config()
    cfg["delta_sweep"] = []

    def boom(*args, **kwargs):
        raise RuntimeError("exploded")

    monkeypatch.setattr(pipeline, "_train_round", boom)
    rows, _, aux = pipeline.run_benchmark(cfg)
    by_name = {row.name: row for row in rows}
    plain = by_name["swag-ppm"].error
    assert plain == "phase 'swag-round-1' failed: exploded"
    assert by_name["swag-ppm-reweighted"].error == plain
    assert by_name["non-private"].error is None
    assert "swag_ppm" not in aux and "swag_ppm_rw" not in aux


def test_release_failure_fails_only_its_row(monkeypatch, tmp_path):
    cfg = tiny_config()
    cfg["delta_sweep"] = []
    save = pipeline.save_checkpoint

    def fail_plain(path, *args, **kwargs):
        if os.sep + "swag_ppm" + os.sep in path:
            raise OSError("disk full")
        return save(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "save_checkpoint", fail_plain)
    rows, _, _ = pipeline.run_benchmark(cfg, out_dir=str(tmp_path / "b"))
    by_name = {row.name: row for row in rows}
    assert by_name["swag-ppm"].error == "disk full"
    assert by_name["swag-ppm-reweighted"].error is None


def test_empty_error_message_keeps_the_row_failed(monkeypatch):
    cfg = tiny_config()
    cfg["delta_sweep"] = []

    def fail(*args):
        raise RuntimeError()

    monkeypatch.setattr(pipeline, "run_nonprivate", fail)
    rows, _, _ = pipeline.run_benchmark(cfg)
    assert rows[0].name == "non-private"
    assert rows[0].error == "RuntimeError"


def test_benchmark_draws_each_dp_step_once(monkeypatch):
    # the default DP-SGD schedule (30 epochs of ceil(n / 512) = 3 Poisson
    # batches) at the base delta and the sweep's four: the five models take
    # one fill of normals per step, scaled for all five, plus the one made
    # ahead for a step that never comes, where one train call per delta
    # made five fills a step; the swag phases are cut short, which leaves
    # the DP-SGD schedule as it is
    cfg = pipeline.load_config(None, [
        "phases.finetune_epochs=1", "phases.swag_epochs=2", "phases.draws=4",
        "nonprivate.epochs=1"])
    fills = []
    draw = trainer._draw_noise

    def counted(rng, scales, outs):
        fills.append(len(scales))
        return draw(rng, scales, outs)

    monkeypatch.setattr(trainer, "_draw_noise", counted)
    rows, sweep_rows, aux = pipeline.run_benchmark(cfg)
    assert not [row.error for row in rows + sweep_rows if row.error]
    steps = 30 * -(-len(aux["train_view"]) // 512)
    assert steps == 90
    assert fills == [5] * (steps + 1)


def test_dp_sweep_fails_a_delta_alone():
    # no sigma meets epsilon 4 at delta 1e-300 (log(1e300) / 63 > 4): that
    # delta fails with run_dp_sgd's error, and the other two keep the theta,
    # sigma and budget run_dp_sgd gives them alone
    cfg = tiny_config()
    train, _ = pipeline.prepare_data(cfg)
    deltas = [1e-4, 1e-300, 0.1]
    got = pipeline.run_dp_sweep(cfg, train, deltas)
    with pytest.raises(type(got[1]), match="unattainable") as raised:
        pipeline.run_dp_sgd(cfg, train, deltas[1])
    assert str(got[1]) == str(raised.value)
    for delta, (theta, sigma, budget) in zip(deltas[::2], got[::2]):
        want_theta, want_sigma, want_budget = pipeline.run_dp_sgd(
            cfg, train, delta)
        assert theta.values.tobytes() == want_theta.values.tobytes()
        assert (sigma, budget) == (want_sigma, want_budget)
