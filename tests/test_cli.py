import errno
import json
import os

import pytest

from swagppm import (accountant, cli, data, models, params, pipeline, ppm,
                     trainer)


TINY = {
    "seed": 7,
    "data": {"synthetic": {"num_classes": 6, "total_records": 400,
                           "vocab_size": 300, "feature_dim": 256}},
    "phases": {"finetune_epochs": 2, "swag_epochs": 4, "draws": 20,
               "batch_size": 32},
    "dp_sgd": {"epochs": 3, "batch_size": 64},
    "nonprivate": {"epochs": 3},
    "delta_sweep": [0.1, 0.99],
}


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run(args):
    return cli.main(args)


def test_generate_data(tmp_path, tiny_config_file, capsys):
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "generate-data"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "gini" in out
    assert os.path.exists(tmp_path / "o" / "train_manifest.json")


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert run(["--config", str(path), "--out", str(tmp_path / "o"),
                "train"]) == cli.EXIT_CONFIG


def test_missing_config_file(tmp_path):
    assert run(["--config", str(tmp_path / "nope.json"),
                "train"]) == cli.EXIT_CONFIG


def test_config_a_directory_exits_2_naming_the_option(tmp_path, capsys):
    code = run(["--config", str(tmp_path), "--out", str(tmp_path / "o"),
                "generate-data"])
    assert code == cli.EXIT_CONFIG
    assert "config error: --config: " in capsys.readouterr().err


def test_train(tmp_path, tiny_config_file, capsys):
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "train"])
    assert code == cli.EXIT_OK
    assert "weighted F1" in capsys.readouterr().out
    assert os.path.exists(tmp_path / "o" / "model.bin")


def test_swag_ppm_subcommand(tmp_path, tiny_config_file, capsys):
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "swag-ppm"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "epsilon" in out
    assert os.path.exists(tmp_path / "o" / "release" / "released_model.bin")
    assert os.path.exists(tmp_path / "o" / "privacy_report.json")


def test_dp_sgd_subcommand(tmp_path, tiny_config_file, capsys):
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "dp-sgd"])
    assert code == cli.EXIT_OK
    assert "sigma" in capsys.readouterr().out


def test_account_subcommand(tmp_path, tiny_config_file, capsys):
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "account"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("delta,epsilon,order")
    assert os.path.exists(tmp_path / "o" / "frontier.csv")
    assert os.path.exists(tmp_path / "o" / "ledger.json")


def test_benchmark_and_report(tmp_path, tiny_config_file, capsys):
    out_dir = str(tmp_path / "o")
    code = run(["--config", tiny_config_file, "--out", out_dir, "benchmark"])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    assert run(["--out", out_dir, "report"]) == cli.EXIT_OK
    assert "f1_weighted" in capsys.readouterr().out


def test_override_flag(tmp_path, tiny_config_file, capsys):
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "--override", "phases.draws=5", "--seed", "9",
                "generate-data"])
    assert code == cli.EXIT_OK


def test_report_without_benchmark(tmp_path):
    assert run(["--out", str(tmp_path / "none"),
                "report"]) == cli.EXIT_CONFIG


def test_report_of_a_summary_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "summary.md"
    path.write_bytes(b"\xff\xfe")
    assert run(["--out", str(tmp_path), "report"]) == cli.EXIT_PHASE
    err = capsys.readouterr().err
    assert "phase failure: phase 'report' failed: %s: " % path in err
    assert "can't decode byte 0xff" in err


def test_account_sigma_is_the_dp_sgd_sigma(tmp_path, tiny_config_file):
    out = tmp_path / "o"
    assert run(["--config", tiny_config_file, "--out", str(out),
                "account"]) == cli.EXIT_OK
    ledger = json.loads((out / "ledger.json").read_text())
    cfg = pipeline.load_config(TINY)
    train, _ = pipeline.prepare_data(cfg)
    _, sigma, _ = pipeline.run_dp_sgd(cfg, train)
    assert ledger["sigma"] == sigma


def test_the_reported_sigma_is_the_trained_sigma(tmp_path, tiny_config_file):
    # the dp-sgd checkpoint's header names the sigma its theta trained at:
    # the sweep at that sigma gives the checkpoint's bytes, and the header's
    # epsilon is that sigma's budget at its delta; each budget a benchmark
    # keeps recomputes from its sigma in the same way
    out = tmp_path / "o"
    assert run(["--config", tiny_config_file, "--out", str(out),
                "dp-sgd"]) == cli.EXIT_OK
    theta, head = params.load_checkpoint(str(out / "dp_sgd_model.bin"))
    cfg = pipeline.load_config(TINY)
    dp = cfg["dp_sgd"]
    train, _ = pipeline.prepare_data(cfg)
    spec = pipeline.model_spec(cfg, train.num_classes, train.feature_dim)
    batch, q, steps = pipeline._dp_steps(cfg, len(train))
    ((retrained, _),) = trainer.train_dp_sweep(
        spec, models.init_params(spec, pipeline.derive_seed(cfg["seed"],
                                                            "init")),
        train.feature_matrix(), train.labels,
        trainer.TrainConfig(trainer.DP_SGD, dp["learning_rate"], batch,
                            dp["epochs"],
                            pipeline.derive_seed(cfg["seed"], "dp-sgd"),
                            dp["clip_norm"]),
        [head["sigma"]])
    assert retrained.values.tobytes() == theta.values.tobytes()

    def epsilon(sigma, delta):
        ledger = accountant.compose(accountant.RdpLedger(q, sigma), steps)
        return accountant.to_dp(ledger, delta).epsilon

    assert head["delta"] == dp["delta"]
    assert head["epsilon"] == epsilon(head["sigma"], head["delta"])
    _, _, aux = pipeline.run_benchmark(cfg)
    assert sorted(aux["dp_budgets"]) == sorted([dp["delta"]]
                                               + cfg["delta_sweep"])
    for delta, (sigma, budget) in aux["dp_budgets"].items():
        assert budget.delta == delta
        assert budget.epsilon == epsilon(sigma, delta)


@pytest.mark.parametrize("command", ["dp-sgd", "account"])
def test_typed_error_exits_with_phase(tmp_path, tiny_config_file, capsys,
                                      command):
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "--override", "dp_sgd.target_epsilon=0.0001", command])
    assert code == cli.EXIT_PHASE
    err = capsys.readouterr().err
    assert "phase %r failed" % command in err
    assert "unattainable" in err


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError()


@pytest.mark.parametrize("target", ["_train_round", "run_nonprivate",
                                    "run_dp_sweep"])
def test_benchmark_exits_3_on_a_failed_row(tmp_path, tiny_config_file,
                                           capsys, monkeypatch, target):
    monkeypatch.setattr(pipeline, target, _raise_runtime_error)
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "benchmark"])
    assert code == cli.EXIT_PHASE
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if "FAILED" in line]
    if target == "_train_round":
        assert len(failed) == 2
        assert all("phase 'swag-round-1' failed" in line for line in failed)
    elif target == "run_dp_sweep":
        # a sweep that raises as a whole fails every DP row: the config's
        # delta and the sweep's two
        assert len(failed) == 3
        assert all(line.startswith("dp-sgd ")
                   and line.endswith("FAILED: RuntimeError")
                   for line in failed)
    else:
        assert "FAILED: RuntimeError" in out


def test_benchmark_exits_3_on_a_failed_sweep_row(tmp_path, tiny_config_file,
                                                 capsys, monkeypatch):
    run_dp_sweep = pipeline.run_dp_sweep

    def fail_at_sweep_end(cfg, train_view, deltas):
        return [RuntimeError() if delta == 0.99 else result
                for delta, result in zip(deltas, run_dp_sweep(cfg, train_view,
                                                              deltas))]

    monkeypatch.setattr(pipeline, "run_dp_sweep", fail_at_sweep_end)
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "benchmark"])
    assert code == cli.EXIT_PHASE
    assert "delta=0.99       wF1=nan mF1=nan FAILED: RuntimeError" in \
        capsys.readouterr().out


def test_generate_data_exits_3_on_a_bad_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,text,label\n1,fell off ladder,fracture\n"
                    "1,cut by saw,laceration\n")
    code = run(["--out", str(tmp_path / "o"), "--override",
                "data.csv_path=%s" % json.dumps(str(path)), "generate-data"])
    assert code == cli.EXIT_PHASE
    err = capsys.readouterr().err
    assert "phase 'generate-data' failed" in err
    assert "%s line 3: id 1 repeats line 2" % path in err


def test_generate_data_exits_3_on_a_csv_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("id,text,label\n1,café,fracture\n".encode("latin-1"))
    code = run(["--out", str(tmp_path / "o"), "--override",
                "data.csv_path=%s" % json.dumps(str(path)), "generate-data"])
    assert code == cli.EXIT_PHASE
    assert ("phase failure: phase 'generate-data' failed: %s line 2: "
            "not UTF-8" % path) in capsys.readouterr().err


def test_csv_path_a_directory_exits_2_naming_the_key(tmp_path, capsys):
    code = run(["--out", str(tmp_path / "o"), "--override",
                "data.csv_path=%s" % json.dumps(str(tmp_path)),
                "generate-data"])
    assert code == cli.EXIT_CONFIG
    assert "config error: data.csv_path: " in capsys.readouterr().err


def test_csv_path_unreadable_exits_2_naming_the_key(tmp_path, capsys,
                                                    monkeypatch):
    path = tmp_path / "records.csv"
    path.write_text("id,text,label\n")

    def open_denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    # the open in the data module, as a file without read permission meets it
    monkeypatch.setattr(data, "open", open_denied, raising=False)
    code = run(["--out", str(tmp_path / "o"), "--override",
                "data.csv_path=%s" % json.dumps(str(path)), "generate-data"])
    assert code == cli.EXIT_CONFIG
    assert "config error: data.csv_path: [Errno 13] Permission denied" in \
        capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "data.synthetic.vocab_size=0", "data.synthetic.num_classes=1",
    "data.cap=1", "data.synthetic.tokens_per_record=5",
    "data.train_fraction=2", 'data.train_fraction="x"',
    "data.train_fraction=0", "data.sampling_fraction=0",
    "data.sampling_fraction=1.5", "data.synthetic={}", "data={}",
])
def test_bad_data_config_exits_2(tmp_path, capsys, monkeypatch, override):
    # each is rejected before any record is generated
    monkeypatch.setattr(data, "generate", _raise_runtime_error)
    code = run(["--out", str(tmp_path / "o"), "--override", override,
                "generate-data"])
    assert code == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_bad_model_family_exits_2(tmp_path, capsys):
    code = run(["--out", str(tmp_path / "o"), "--override",
                'model.family="cnn"', "train"])
    assert code == cli.EXIT_CONFIG
    assert "unknown model family 'cnn'" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    ['model.family="cnn"'],
    ['model.family="mlp-1-hidden"', "model.hidden_dim=32.5"],
    ["model.weight_decay=-1"],
    ['model.family="mlp-1-hidden"', "model.hidden_dim=true"],
    ["model.weight_decay=true"],
])
def test_bad_model_config_exits_2_before_any_data(tmp_path, capsys,
                                                 monkeypatch, overrides):
    monkeypatch.setattr(data, "generate", _raise_runtime_error)
    for command in ("train", "benchmark"):
        args = ["--out", str(tmp_path / "o")]
        for override in overrides:
            args += ["--override", override]
        assert run(args + [command]) == cli.EXIT_CONFIG
        assert "config error: model:" in capsys.readouterr().err


@pytest.mark.parametrize("command, override, message", [
    ("train", "nonprivate.learning_rate=null",
     "nonprivate training: bad learning_rate None"),
    ("swag-ppm-rw", "phases.batch_size=3.5", "finetune training: "),
    ("swag-ppm-rw", "phases.draws=0", "phases.draws must be an integer"),
    ("swag-ppm-rw", 'phases.draws="5"', "phases.draws must be an integer"),
    ("swag-ppm-rw", "phases.swag_rank=0", "phases.swag_rank must be an"),
    ("swag-ppm-rw", "phases.k=1.5", "phases.k must be in (0, 1)"),
    ("swag-ppm-rw", "phases.c=-1", "phases.c must be >= 0"),
    ("swag-ppm", 'phases.g="x"', "phases.g must be a number"),
    ("benchmark", "delta_sweep=[2]", "delta_sweep must be a list of"),
    ("benchmark", "dp_sgd.delta=0", "dp_sgd.delta must be in (0, 1)"),
    ("benchmark", "dp_sgd.target_epsilon=0",
     "dp_sgd.target_epsilon must be > 0"),
    ("benchmark", "dp_sgd.clip_norm=0",
     "dp-sgd training: dp-sgd requires clip_norm > 0"),
    # values that crashed with a traceback or ran another config than the
    # one they name; a list sets several values
    ("generate-data", ['seed="x"', 'data.csv_path="records.csv"'],
     "seed must be an integer"),
    ("generate-data", "seed=1.5", "seed must be an integer, got 1.5"),
    ("generate-data", "seed=true", "seed must be an integer, got True"),
    ("generate-data", "data.csv_path=5",
     "data.csv_path must be null or a non-empty"),
    ("generate-data", "data.csv_path=true",
     "data.csv_path must be null or a non-empty"),
    ("generate-data", 'data.csv_path=""',
     "data.csv_path must be null or a non-empty"),
    ("generate-data", "data.csv_path=0",
     "data.csv_path must be null or a non-empty"),
    ("generate-data", "data.cap=2.5",
     "data.cap must be an integer >= 2, got 2.5"),
    ("generate-data", "data.synthetic.num_classes=3.5",
     "data.synthetic: num_classes must be an integer"),
    ("generate-data", 'data.synthetic.zipf_exponent="x"',
     "data.synthetic: zipf_exponent must be a number"),
    ("generate-data", "data.synthetic.total_records=300.5",
     "data.synthetic: total_records must be an integer"),
    ("generate-data", "data.synthetic.feature_dim=true",
     "data.synthetic: feature_dim must be an integer"),
    ("generate-data", "data.synthetic.tokens_per_record=[1.5, 3]",
     "data.synthetic: tokens_per_record must be integers"),
    ("generate-data", "phases.draws=true",
     "phases.draws must be an integer >= 1"),
    ("generate-data", "nonprivate.epochs=true", "nonprivate training: "),
    ("generate-data",
     ['data.csv_path="records.csv"', 'data.synthetic.feature_dim="x"'],
     "data.synthetic: feature_dim must be an integer"),
    ("generate-data",
     ['data.csv_path="records.csv"', "data.synthetic.feature_dim=100"],
     "data.synthetic: feature_dim must be a power of two"),
    # a bool is not a number either
    ("generate-data", "data.synthetic.class_signal_strength=true",
     "data.synthetic: class_signal_strength must be a number"),
    ("generate-data", "data.synthetic.zipf_exponent=true",
     "data.synthetic: zipf_exponent must be a number"),
    ("generate-data", "data.sampling_fraction=true",
     "data.sampling_fraction must be in (0, 1], got True"),
    ("generate-data", "phases.finetune_lr=true",
     "finetune training: bad learning_rate True"),
    ("generate-data", "phases.c=true", "phases.c must be >= 0, got True"),
    ("generate-data", "phases.g=true", "phases.g must be a number"),
    # JSON's NaN and Infinity parse to floats, which would make NaN weights
    ("swag-ppm", "phases.g=NaN", "phases.g must be finite, got nan"),
    ("swag-ppm", "phases.c=Infinity", "phases.c must be finite, got inf"),
    ("generate-data", "dp_sgd.target_epsilon=true",
     "dp_sgd.target_epsilon must be > 0, got True"),
    ("generate-data", "dp_sgd.clip_norm=true",
     "dp-sgd training: dp-sgd requires clip_norm > 0"),
    # infinite training settings, which would train to a non-finite theta
    # or, for target_epsilon, calibrate to the bracket's floor sigma; JSON's
    # 1e400 parses to inf
    ("benchmark", "dp_sgd.clip_norm=Infinity",
     "dp-sgd training: dp-sgd requires clip_norm > 0 and finite"),
    ("train", "model.weight_decay=Infinity",
     "model: weight_decay must be finite and >= 0"),
    ("train", "nonprivate.learning_rate=Infinity",
     "nonprivate training: bad learning_rate inf"),
    ("swag-ppm", "phases.finetune_lr=Infinity",
     "finetune training: bad learning_rate inf"),
    ("swag-ppm", "phases.swag_lr=Infinity",
     "swag training: bad learning_rate inf"),
    ("benchmark", "dp_sgd.learning_rate=1e400",
     "dp-sgd training: bad learning_rate inf"),
    ("benchmark", "dp_sgd.target_epsilon=Infinity",
     "dp_sgd.target_epsilon must be finite, got inf"),
    # a delta_sweep that is not a list at all
    ("benchmark", "delta_sweep=0.1",
     "delta_sweep must be a list of deltas in (0, 1), got 0.1"),
])
def test_bad_training_config_exits_2_before_any_data(
        tmp_path, capsys, monkeypatch, command, override, message):
    monkeypatch.setattr(data, "generate", _raise_runtime_error)
    monkeypatch.setattr(data, "load_csv", _raise_runtime_error)
    args = ["--out", str(tmp_path / "o")]
    for value in [override] if isinstance(override, str) else override:
        args += ["--override", value]
    code = run(args + [command])
    assert code == cli.EXIT_CONFIG
    assert "config error: " + message in capsys.readouterr().err


def test_csv_run_judges_only_the_feature_dim(tmp_path, capsys):
    # the rest of data.synthetic describes data a CSV run never generates
    path = tmp_path / "records.csv"
    path.write_text("id,text,label\n" + "".join(
        "%d,record %d,%s\n" % (i, i, "ab"[i % 2]) for i in range(8)))
    args = ["--out", str(tmp_path / "o")]
    for override in ["data.csv_path=%s" % json.dumps(str(path)),
                     "data.synthetic.class_signal_strength=2",
                     "data.synthetic.total_records=1",
                     "data.synthetic.tokens_per_record=[5, 1]"]:
        args += ["--override", override]
    assert run(args + ["generate-data"]) == cli.EXIT_OK, \
        capsys.readouterr().err


def test_reweighting_failure_exits_3_naming_its_phase(tmp_path,
                                                      tiny_config_file,
                                                      capsys):
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "--override", "phases.c=0", "--override", "phases.g=0",
                "swag-ppm-rw"])
    assert code == cli.EXIT_PHASE
    assert ("phase 'reweight' failed: reweighting undefined when Delta is "
            "zero") in capsys.readouterr().err


def test_a_full_disk_under_the_score_file_exits_3_naming_its_phase(
        tmp_path, tiny_config_file, capsys, monkeypatch):
    def disk_full(out, offset, row):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(ppm, "_write_at", disk_full)
    out = tmp_path / "o"
    code = run(["--config", tiny_config_file, "--out", str(out), "swag-ppm"])
    assert code == cli.EXIT_PHASE
    assert ("phase 'risks' failed: [Errno %d] No space left on device"
            % errno.ENOSPC) in capsys.readouterr().err
    assert not (out / "internal" / "round1_abs_ll.npy").exists()


def test_config_file_section_given_a_value_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": 5}))
    code = run(["--config", str(path), "--out", str(tmp_path / "o"),
                "generate-data"])
    assert code == cli.EXIT_CONFIG
    assert "config error: model is a section" in capsys.readouterr().err


def _file_holding(directory, text):
    path = directory / "file"
    path.write_text(text)
    return str(path)


def _out_with_a_model_bin_directory(directory):
    os.makedirs(directory / "o" / "model.bin")
    return str(directory / "o")


# Exit 2 is a ConfigError and nothing else, and it names the option, the
# override or the setting; a data or I/O failure in a subcommand is exit 3
# naming the subcommand.
@pytest.mark.parametrize("args, code, message", [
    (lambda d: ["--out", _file_holding(d, ""), "generate-data"],
     cli.EXIT_CONFIG, "config error: --out: [Errno 17] File exists"),
    (lambda d: ["--out", str(d / "o"), "--override", "seed=abc",
                "generate-data"],
     cli.EXIT_CONFIG, "config error: override 'seed=abc': Expecting value"),
    (lambda d: ["--out", str(d / "o"), "--config",
                _file_holding(d, '{"seed":'), "generate-data"],
     cli.EXIT_CONFIG, "config error: --config: Expecting value"),
    (lambda d: ["--out", str(d / "o"), "--config",
                _file_holding(d, json.dumps(TINY)), "--override",
                "phases.swag_epochs=0", "swag-ppm"],
     cli.EXIT_CONFIG,
     "config error: phases.swag_epochs must be an integer >= 1, got 0"),
    (lambda d: ["--out", str(d / "o"), "--override",
                "data.sampling_fraction=0.0005", "generate-data"],
     cli.EXIT_PHASE, "phase failure: phase 'generate-data' failed: the cap "
                     "sample keeps 0 classes; need at least 2"),
    (lambda d: ["--out", _out_with_a_model_bin_directory(d), "--config",
                _file_holding(d, json.dumps(TINY)), "train"],
     cli.EXIT_PHASE, "phase failure: phase 'train' failed: [Errno 21] Is a "
                     "directory"),
], ids=["out-a-file", "override-not-json", "config-not-json",
        "no-swag-epochs", "cap-sample-keeps-no-class",
        "checkpoint-unwritable"])
def test_exit_code_names_its_cause(tmp_path, capsys, args, code, message):
    assert run(args(tmp_path)) == code
    assert message in capsys.readouterr().err


def test_manifests_rebuild_the_split_from_the_recorded_seed(
        tmp_path, tiny_config_file):
    out = tmp_path / "o"
    assert run(["--config", tiny_config_file, "--out", str(out),
                "generate-data"]) == cli.EXIT_OK
    cfg = pipeline.load_config(TINY)
    sc = cfg["data"]["synthetic"]
    for part in ("train", "test"):
        manifest = json.loads((out / ("%s_manifest.json" % part)).read_text())
        prov = manifest["provenance"]
        split, cap = prov["split"], prov["cap_sample"]
        assert split["part"] == part
        assert split["seed"] == pipeline.derive_seed(cfg["seed"], "split")
        dataset = data.generate(data.SyntheticSpec(
            **dict(sc, tokens_per_record=tuple(sc["tokens_per_record"])),
            seed=prov["seed"]))
        capped = data.stratified_cap_sample(dataset, cap["cap"],
                                            cap["fraction"], cap["seed"])
        views = dict(zip(("train", "test"), data.stratified_split(
            capped, split["train_fraction"], split["seed"])))
        assert views[split["part"]].content_hash() == \
            manifest["content_hash"]
