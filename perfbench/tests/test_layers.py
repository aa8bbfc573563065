import json
import os

import numpy as np

import layers
import run
import spans
from swagppm import models, pipeline
from swagppm.params import ParameterVector

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        layers.units().items())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END_UNITS.items())


def test_installed_wrappers_record_spans_and_restore():
    original = pipeline.prepare_data
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        assert pipeline.prepare_data is not original
        spec = models.ModelSpec(models.SOFTMAX_LINEAR, 4, 3)
        theta = models.init_params(spec, 0)
        X = np.eye(4)
        with tracer.root(layers.OP):
            models.mean_nll(spec, theta, X, [0, 1, 2, 0])
            ParameterVector(np.zeros(theta.layout.size), theta.layout)
    finally:
        tracer.restore()
    assert pipeline.prepare_data is original
    values, per_op = layers.layer_values(spans.summarize(tracer.spans),
                                         tracer.root_counts)
    assert values["models.mean_nll_calls"] == 1
    assert values["models.log_likelihood_batch_calls"] == 1
    assert values["params.vectors_built"] == 1
    assert values["trainer.steps"] == 0
    assert values["models.mean_nll_s"] > 0
    assert per_op[0]["models.mean_nll_calls"] == 1


def test_layer_values_add_one_setup_to_the_mean_operation():
    spans_list = [
        [layers.SETUP, 0.0, 2.0, -1], ["data.generate", 0.0, 1.5, 0],
        [layers.OP, 3.0, 7.0, -1], ["trainer.train", 3.0, 6.0, 2],
        ["models.mean_nll", 4.0, 5.0, 3],
        [layers.OP, 8.0, 10.0, -1], ["trainer.train", 8.0, 9.0, 5],
        ["models.mean_nll", 8.0, 8.5, 6], ["models.mean_nll", 8.5, 9.0, 6],
    ]
    counts = {0: {"data.records": 10}, 2: {"swag.draws": 3},
              5: {"swag.draws": 4}}
    values, per_op = layers.layer_values(spans.summarize(spans_list), counts)
    assert values["data.generate_s"] == 1.5
    assert values["data.records"] == 10
    assert values["trainer.train_s"] == (2.0 + 0.0) / 2
    assert values["models.mean_nll_s"] == (1.0 + 1.0) / 2
    assert values["trainer.steps"] == 1.5  # operations differed
    assert values["swag.draws"] == 3.5
    assert values["trace.wall_s"] == 3.0
    assert [m["trainer.steps"] for m in per_op] == [1, 2]
