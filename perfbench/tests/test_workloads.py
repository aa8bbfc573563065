import numpy as np
import pytest

import check
import workloads
from swagppm import params, pipeline

SMALL = ["data.synthetic.total_records=300", "data.cap=40",
         "phases.draws=8", "phases.finetune_epochs=2", "phases.swag_epochs=3",
         "phases.swag_rank=3", "dp_sgd.epochs=2", "nonprivate.epochs=2",
         "dp_sgd.batch_size=64"]


@pytest.fixture(scope="module")
def bench_default_run(tmp_path_factory):
    cfg = pipeline.load_config(None, SMALL)
    out_dir = str(tmp_path_factory.mktemp("bench"))
    result = workloads.run_bench_default(cfg, None, None, out_dir)
    return cfg, result, out_dir


def test_bench_default_outcome_passes_the_check(bench_default_run):
    cfg, result, out_dir = bench_default_run
    outcome = workloads.outcome_bench_default(cfg, result, out_dir)
    assert check.problems(outcome) == []
    fp = outcome["fingerprint"]
    assert set(fp["methods"]) == {"non-private", "swag-ppm",
                                  "swag-ppm-reweighted", "dp-sgd"}
    assert len(fp["dp_sgd"]) == 1 + len(cfg["delta_sweep"])
    assert len(outcome["equal"]) == 4
    assert outcome["shape"]["S"] == 8


def test_bench_default_check_reads_the_checkpoint_on_disk(bench_default_run):
    cfg, result, out_dir = bench_default_run
    path = out_dir + "/swag_ppm/release/released_model.bin"
    theta, head = params.load_checkpoint(path)
    params.save_checkpoint(path, theta.replace(theta.values + 1.0), head)
    found = check.problems(
        workloads.outcome_bench_default(cfg, result, out_dir))
    assert len(found) == 1
    assert "released_model.bin" in found[0]


def test_workload_configs_use_the_seed_as_master_seed():
    for name in workloads.WORKLOADS:
        assert workloads.config(name, 7)["seed"] == 7
    large = workloads.config("release-mlp-large", 7)
    assert large["model"]["family"] == "mlp-1-hidden"
    assert large["data"]["synthetic"]["total_records"] == 40000
    assert workloads.config("bench-default", 7)["data"] == \
        pipeline.DEFAULT_CONFIG["data"]
