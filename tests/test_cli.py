import json
import os

import pytest

from swagppm import cli, data, pipeline


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


def test_account_sigma_is_the_dp_sgd_sigma(tmp_path, tiny_config_file):
    out = tmp_path / "o"
    assert run(["--config", tiny_config_file, "--out", str(out),
                "account"]) == cli.EXIT_OK
    ledger = json.loads((out / "ledger.json").read_text())
    cfg = pipeline.load_config(TINY)
    train, _ = pipeline.prepare_data(cfg)
    _, sigma, _ = pipeline.run_dp_sgd(cfg, train)
    assert ledger["sigma"] == sigma


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


@pytest.mark.parametrize("target", ["_train_round", "run_nonprivate"])
def test_benchmark_exits_3_on_a_failed_row(tmp_path, tiny_config_file,
                                           capsys, monkeypatch, target):
    monkeypatch.setattr(pipeline, target, _raise_runtime_error)
    code = run(["--config", tiny_config_file, "--out", str(tmp_path / "o"),
                "benchmark"])
    assert code == cli.EXIT_PHASE
    out = capsys.readouterr().out
    if target == "_train_round":
        failed = [line for line in out.splitlines() if "FAILED" in line]
        assert len(failed) == 2
        assert all("phase 'swag-round-1' failed" in line for line in failed)
    else:
        assert "FAILED: RuntimeError" in out


def test_benchmark_exits_3_on_a_failed_sweep_row(tmp_path, tiny_config_file,
                                                 capsys, monkeypatch):
    run_dp_sgd = pipeline.run_dp_sgd

    def fail_at_sweep_end(cfg, train_view, delta=None):
        if delta == 0.99:
            raise RuntimeError()
        return run_dp_sgd(cfg, train_view, delta)

    monkeypatch.setattr(pipeline, "run_dp_sgd", fail_at_sweep_end)
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
    ("generate-data", "dp_sgd.target_epsilon=true",
     "dp_sgd.target_epsilon must be > 0, got True"),
    ("generate-data", "dp_sgd.clip_norm=true",
     "dp-sgd training: dp-sgd requires clip_norm > 0"),
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


def test_config_file_section_given_a_value_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": 5}))
    code = run(["--config", str(path), "--out", str(tmp_path / "o"),
                "generate-data"])
    assert code == cli.EXIT_CONFIG
    assert "config error: model is a section" in capsys.readouterr().err


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
