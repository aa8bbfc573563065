import csv
import ctypes.util
import functools
import gc
import json
import os
import shutil
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swagppm import blas, models, pipeline, ppm, swag, trainer
from swagppm.params import ParameterVector, load_checkpoint

from conftest import (frozen_frame, large_instance, tiny_config,
                      traced_peak, within_a_minute)


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
    assert blas.threads() == 2


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


@pytest.mark.fold_threads
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


@pytest.mark.fold_threads
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
    err = within_a_minute(lambda: pipeline.run_swag_ppm(cfg, train))
    assert isinstance(err, pipeline.PhaseError)
    assert err.phase == "risks"
    assert sorted(errors) == [2, 3]
    assert err.cause is errors[2]
    assert threading.enumerate() == before
    assert blas.threads() == 2


def _missing_symbol(monkeypatch):
    # the lookup finds a library without OpenBLAS's thread controls
    monkeypatch.setattr(blas, "_controls",
                        functools.cache(blas._controls.__wrapped__))
    monkeypatch.setattr(blas.glob, "glob",
                        lambda pattern: [ctypes.util.find_library("c")])


@pytest.mark.fold_threads
def test_without_blas_controls_the_fold_runs_on_one_lane_with_the_same_bits(
        monkeypatch, two_blas_threads):
    # p = 16384 * 6 + 6 = 98310 and k = swag_epochs: p * k is above
    # swag.GEMV_THREADED, and at k = 10 so is each half's (49155 * 10), which
    # the draws then take in chunks below it, each on the calling thread at
    # two BLAS threads; each half split over two threads moves the release
    cfg = tiny_config()
    cfg["data"]["synthetic"]["feature_dim"] = 16384
    train, _ = pipeline.prepare_data(cfg)
    for swag_epochs in (6, 10):
        cfg["phases"]["swag_epochs"] = swag_epochs
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
        assert got.report.per_record.tobytes() \
            == want.report.per_record.tobytes()
        assert (got.report.argmax_draw, got.report.argmax_record_id) \
            == (want.report.argmax_draw, want.report.argmax_record_id)
        assert got.released_theta.values.tobytes() \
            == want.released_theta.values.tobytes()


@pytest.mark.fold_threads
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_lane_fold_equals_one_lane_fold_at_each_blas_thread_count(
        monkeypatch, set_blas_threads, threads):
    # a reweighted MLP release trained at t threads and folded on t lanes
    # has the bits of the release made on one lane without the BLAS
    # controls at two threads. n * hidden * classes > 10**6, so a block's
    # H @ W2 is on OpenBLAS's kernel of the whole product, and p * k =
    # 33460 * 14 is above swag.GEMV_THREADED, so each draw's gemv comes in
    # two halves, each below it; at seed 9 the whole gemv at one thread
    # moves the release
    cfg = pipeline.load_config({"seed": 9})
    cfg["data"].update(cap=2000)
    cfg["data"]["synthetic"].update(feature_dim=1024)
    cfg["model"].update(family="mlp-1-hidden", hidden_dim=32)
    cfg["phases"].update(finetune_epochs=2, swag_epochs=14, draws=12)
    train, _ = pipeline.prepare_data(cfg)
    set_blas_threads(threads)
    assert blas.threads() == threads
    got = pipeline.run_swag_ppm(cfg, train, reweighted=True)
    assert blas.threads() == threads
    set_blas_threads(2)
    _missing_symbol(monkeypatch)
    want = pipeline.run_swag_ppm(cfg, train, reweighted=True)
    assert len(train) * 32 * 20 > 10 ** 6
    assert want.moments.layout.size * want.moments.k > swag.GEMV_THREADED
    assert got.report.delta == want.report.delta
    assert got.report.per_record.tobytes() == want.report.per_record.tobytes()
    assert (got.report.argmax_draw, got.report.argmax_record_id) \
        == (want.report.argmax_draw, want.report.argmax_record_id)
    assert got.released_theta.values.tobytes() \
        == want.released_theta.values.tobytes()


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


def test_benchmark_holds_no_rounds_moments_past_its_release(monkeypatch,
                                                            tmp_path):
    cfg = tiny_config()
    cfg["delta_sweep"] = [0.1]
    train_round, dp_sweep = pipeline._train_round, pipeline.run_dp_sweep
    made, alive = [], []  # each round's moments; which were alive, and when

    def spy_round(*args):
        gc.collect()
        alive.append([ref() is not None for ref in made])
        moments = train_round(*args)
        made.append(weakref.ref(moments))
        return moments

    def spy_sweep(*args):
        gc.collect()
        alive.append([ref() is not None for ref in made])
        return dp_sweep(*args)

    monkeypatch.setattr(pipeline, "_train_round", spy_round)
    monkeypatch.setattr(pipeline, "run_dp_sweep", spy_sweep)
    rows, sweep_rows, aux = pipeline.run_benchmark(cfg, str(tmp_path / "b"))
    assert all(row.error is None for row in rows + sweep_rows)
    assert alive == [[], [False], [False, False], [False, False, False]]
    assert aux["swag_ppm"].moments is aux["swag_ppm_rw"].moments is None


def _alpha_column(path):
    with open(path, newline="") as f:
        return np.array([float(row["alpha"]) for row in csv.DictReader(f)])


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from([models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN]),
       c=st.floats(0, 3), g=st.floats(-3, 3), k=st.floats(0.01, 0.99),
       draws=st.integers(1, 8), swag_rank=st.integers(1, 4),
       swag_epochs=st.integers(1, 6))
@example(family=models.SOFTMAX_LINEAR, c=0.0, g=1.0, k=0.5, draws=4,
         swag_rank=3, swag_epochs=5)
@example(family=models.MLP_1_HIDDEN, c=0.0, g=0.0, k=0.5, draws=4,
         swag_rank=3, swag_epochs=5)
def test_a_reweighted_run_holds_the_mechanisms_chain(tmp_path_factory, family,
                                                     c, g, k, draws,
                                                     swag_rank, swag_epochs):
    # a swag_rank below swag_epochs evicts, and a rank of 1 draws no
    # low-rank term
    cfg = pipeline.load_config({"seed": 5})
    cfg["data"]["synthetic"].update(num_classes=4, total_records=120,
                                    vocab_size=60, feature_dim=64)
    cfg["model"].update(family=family,
                        hidden_dim=3 if family == models.MLP_1_HIDDEN else 0)
    cfg["phases"].update(finetune_epochs=2, batch_size=16, draws=draws,
                         swag_rank=swag_rank, swag_epochs=swag_epochs, c=c,
                         g=g, k=k)
    train, _ = pipeline.prepare_data(cfg)
    out = str(tmp_path_factory.mktemp("run"))
    if c + g <= 0:
        # every initial alpha is clip(c (1 - normalized risk) + g) <= 0, so
        # round 2's Delta is 0 and reweighting it is undefined
        with pytest.raises(pipeline.PhaseError) as failed:
            pipeline.run_swag_ppm(cfg, train, out_dir=out, reweighted=True)
        assert failed.value.phase == "reweight"
        assert "Delta is zero" in str(failed.value.cause)
        return
    res = pipeline.run_swag_ppm(cfg, train, out_dir=out, reweighted=True)
    internal = os.path.join(out, "internal")
    initial = _alpha_column(os.path.join(internal, "weights_initial.csv"))
    alpha = _alpha_column(os.path.join(internal, "weights_reweighted.csv"))
    for a in (initial, alpha):
        assert a.shape == (len(train),) and np.all((0 <= a) & (a <= 1))
    if c == 0:
        assert np.all(initial == min(g, 1.0))
    want = ppm.sensitivity(
        np.load(os.path.join(internal, "round3_abs_ll.npy")), alpha,
        train.ids)
    report = res.report
    assert report.delta == want.delta and report.num_draws == draws
    assert np.array_equal(report.per_record, want.per_record)
    assert (report.argmax_draw, report.argmax_record_id) == (
        want.argmax_draw, want.argmax_record_id)
    with open(os.path.join(out, "privacy_report.json")) as f:
        written = json.load(f)
    _, header = load_checkpoint(
        os.path.join(out, "release", "released_model.bin"))
    assert res.epsilon == 2 * report.delta == written["epsilon"] \
        == header["epsilon"]
    assert written["delta"] == report.delta
    assert written["per_record"] == report.per_record.tolist()


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


def test_an_empty_poisson_batch_takes_its_noise_step(monkeypatch):
    # batches of 1 over the tiny train view: q = 1/n, so about a third of
    # the Poisson batches are empty. The accountant composes the sampled
    # Gaussian mechanism over all of _dp_steps' steps, so every step takes
    # its fill of normals, an empty batch's too, plus the one made ahead
    # for a step that never comes
    cfg = tiny_config()
    cfg["dp_sgd"].update(batch_size=1, epochs=2)
    train, _ = pipeline.prepare_data(cfg)
    fills, sizes = [], []
    draw, gradient = trainer._draw_noise, models.gradient_into

    def counted(rng, scales, outs):
        fills.append(len(scales))
        return draw(rng, scales, outs)

    def sized(spec, theta, X, rows, *args, **kwargs):
        sizes.append(rows[1] - rows[0])
        return gradient(spec, theta, X, rows, *args, **kwargs)

    monkeypatch.setattr(trainer, "_draw_noise", counted)
    monkeypatch.setattr(models, "gradient_into", sized)
    (result,) = pipeline.run_dp_sweep(cfg, train, [cfg["dp_sgd"]["delta"]])
    assert not isinstance(result, Exception)
    _, _, steps = pipeline._dp_steps(cfg, len(train))
    assert len(sizes) == steps and 0 in sizes
    assert fills == [1] * (steps + 1)


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
