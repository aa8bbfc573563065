import gc
import json
import os
import shutil
import tracemalloc
import weakref

import numpy as np
import pytest

from swagppm import models, pipeline, ppm, swag, trainer
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
    draws = swag.SwagMoments.draws

    def one_overflowing(self, count, seed):
        for s, draw in enumerate(draws(self, count, seed)):
            yield overflowing if s == 2 else draw

    monkeypatch.setattr(swag.SwagMoments, "draws", one_overflowing)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(models.log_likelihood_batch(
            spec, ParameterVector(overflowing, spec.layout()),
            train.feature_matrix(), train.labels)).any()
        with pytest.raises(pipeline.PhaseError) as err:
            pipeline.run_swag_ppm(cfg, train)
    assert err.value.phase == "risks"
    assert isinstance(err.value.cause, ppm.PpmError)
    assert "draw 2 " in str(err.value.cause)


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
