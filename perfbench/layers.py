"""Which swagppm functions the traced run wraps, and the per-layer metrics
derived from the spans and counters they record.

Layers are named after swagppm's modules. A `_s` metric is the summed self
time of a function's spans; a `_calls` metric counts them. The per-layer
value of a run is one set-up plus the mean over the run's operations.
"""

import statistics

SETUP = "bench.setup"
OP = "bench.op"

# (metric, unit, kind, key). kind "self" and "calls" read spans named key;
# "edge" counts spans named key[1] opened directly inside spans named key[0];
# "counter" reads a counter.
METRICS = [
    ("pipeline.prepare_data_s", "s", "self", "pipeline.prepare_data"),
    ("pipeline.run_nonprivate_s", "s", "self", "pipeline.run_nonprivate"),
    ("pipeline.run_swag_ppm_s", "s", "self", "pipeline.run_swag_ppm"),
    ("pipeline.run_dp_sgd_s", "s", "self", "pipeline.run_dp_sgd"),
    ("pipeline.evaluate_s", "s", "self", "pipeline.evaluate"),
    ("pipeline.write_reports_s", "s", "self", "pipeline.write_reports"),
    ("swag.sample_s", "s", "self", "swag.sample"),
    ("swag.draws", "count", "counter", "swag.draws"),
    ("swag.sample_bytes", "B", "counter", "swag.sample_bytes"),
    ("swag.absorb_s", "s", "self", "swag.absorb"),
    ("swag.save_moments_s", "s", "self", "swag.save_moments"),
    ("ppm.abs_loglik_matrix_s", "s", "self", "ppm.abs_loglik_matrix"),
    ("ppm.score_cells", "count", "counter", "ppm.score_cells"),
    ("ppm.score_bytes", "B", "counter", "ppm.score_bytes"),
    ("ppm.sensitivity_s", "s", "self", "ppm.sensitivity"),
    ("models.weighted_nll_gradient_s", "s", "self",
     "models.weighted_nll_gradient"),
    ("models.weighted_nll_gradient_calls", "count", "calls",
     "models.weighted_nll_gradient"),
    ("models.clipped_gradient_sum_s", "s", "self",
     "models.clipped_gradient_sum"),
    ("models.clipped_gradient_sum_calls", "count", "calls",
     "models.clipped_gradient_sum"),
    ("models.mean_nll_s", "s", "self", "models.mean_nll"),
    ("models.mean_nll_calls", "count", "calls", "models.mean_nll"),
    ("models.log_likelihood_batch_s", "s", "self",
     "models.log_likelihood_batch"),
    ("models.log_likelihood_batch_calls", "count", "calls",
     "models.log_likelihood_batch"),
    ("trainer.train_s", "s", "self", "trainer.train"),
    ("trainer.train_calls", "count", "calls", "trainer.train"),
    # trainer.train computes the loss once per optimizer step
    ("trainer.steps", "count", "edge", ("trainer.train", "models.mean_nll")),
    ("accountant.calibrate_noise_s", "s", "self", "accountant.calibrate_noise"),
    ("accountant.calibrate_noise_calls", "count", "calls",
     "accountant.calibrate_noise"),
    ("accountant.sgm_rdp_calls", "count", "counter",
     "accountant.sgm_rdp_calls"),
    ("accountant.compose_s", "s", "self", "accountant.compose"),
    ("data.generate_s", "s", "self", "data.generate"),
    ("data.hash_features_calls", "count", "counter",
     "data.hash_features_calls"),
    ("data.feature_matrix_s", "s", "self", "data.feature_matrix"),
    ("data.feature_matrix_calls", "count", "calls", "data.feature_matrix"),
    ("data.records", "count", "counter", "data.records"),
    ("data.nnz", "count", "counter", "data.nnz"),
    ("params.save_checkpoint_s", "s", "self", "params.save_checkpoint"),
    ("params.vectors_built", "count", "counter", "params.vectors_built"),
    ("metrics.tally_from_predictions_s", "s", "self",
     "metrics.tally_from_predictions"),
    ("io.bytes_written", "B", "counter", "io.bytes_written"),
]

# The traced operation's own wall time; traced minus untraced is the
# tracing overhead.
TRACED_WALL = ("trace.wall_s", "s")

COUNT_METRICS = [m[0] for m in METRICS if m[1] != "s"]


def _count_draws(counts, args, kwargs, draws):
    counts["swag.draws"] += len(draws)
    counts["swag.sample_bytes"] += len(draws) * draws[0].values.size * 8


def _count_cells(counts, args, kwargs, abs_ll):
    counts["ppm.score_cells"] += abs_ll.size
    counts["ppm.score_bytes"] += abs_ll.size * 8


def _count_records(counts, args, kwargs, dataset):
    counts["data.records"] += len(dataset)
    counts["data.nnz"] += sum(r.indices.size for r in dataset.records)


def install(tracer):
    """Wrap swagppm's public functions with the tracer's spans and counters."""
    from swagppm import (accountant, data, metrics, models, params, pipeline,
                         ppm, swag, trainer)

    for fn in ("prepare_data", "run_nonprivate", "run_swag_ppm", "run_dp_sgd",
               "evaluate", "write_reports"):
        tracer.span(pipeline, fn, "pipeline." + fn)
    tracer.span(swag.SwagMoments, "sample", "swag.sample", _count_draws)
    tracer.span(swag.SwagMoments, "absorb", "swag.absorb")
    tracer.span(swag, "save_moments", "swag.save_moments")
    tracer.span(ppm, "abs_loglik_matrix", "ppm.abs_loglik_matrix",
                _count_cells)
    tracer.span(ppm, "sensitivity", "ppm.sensitivity")
    for fn in ("weighted_nll_gradient", "clipped_gradient_sum", "mean_nll",
               "log_likelihood_batch"):
        tracer.span(models, fn, "models." + fn)
    tracer.span(trainer, "train", "trainer.train")
    tracer.span(accountant, "calibrate_noise", "accountant.calibrate_noise")
    tracer.span(accountant, "compose", "accountant.compose")
    tracer.count(accountant, "sgm_rdp", "accountant.sgm_rdp_calls")
    tracer.span(data, "generate", "data.generate", _count_records)
    tracer.count(data, "hash_features", "data.hash_features_calls")
    tracer.span(data.LabeledDataset, "feature_matrix", "data.feature_matrix")
    # pipeline imported save_checkpoint by name, so both modules hold it
    tracer.span([params, pipeline], "save_checkpoint",
                "params.save_checkpoint")
    tracer.count(params.ParameterVector, "__init__", "params.vectors_built")
    tracer.span(metrics, "tally_from_predictions",
                "metrics.tally_from_predictions")


def _value(root, counts, kind, key):
    if kind == "self":
        return root["self"][key]
    if kind == "calls":
        return root["calls"][key]
    if kind == "edge":
        return root["edges"][key]
    return counts.get(key, 0)


def root_metrics(root, counts):
    """Every layer metric measured inside one root span."""
    return {name: _value(root, counts, kind, key)
            for name, _, kind, key in METRICS}


def _setup_and_ops(roots):
    setup = [r for r in roots if r["name"] == SETUP][:1]
    ops = [r for r in roots if r["name"] == OP]
    if not ops:
        raise ValueError("no traced operation")
    return setup, ops


def layer_values(roots, root_counts):
    """Per-layer metrics of a traced run: the first set-up plus the mean
    over operations, with the traced operations' median wall time."""
    setup, ops = _setup_and_ops(roots)
    per_setup = [root_metrics(r, root_counts.get(r["index"], {}))
                 for r in setup]
    per_op = [root_metrics(r, root_counts.get(r["index"], {})) for r in ops]
    values = {}
    for name, unit, _, _ in METRICS:
        value = (sum(m[name] for m in per_setup)
                 + sum(m[name] for m in per_op) / len(per_op))
        values[name] = value if unit == "s" or value % 1 else int(value)
    values[TRACED_WALL[0]] = statistics.median(r["wall"] for r in ops)
    return values, per_op


def inclusive_times(roots):
    """Summed span durations, children included, per span name: the first
    set-up plus the mean over operations. For reading, not a metric."""
    setup, ops = _setup_and_ops(roots)
    names = sorted({n for r in setup + ops for n in r["total"]})
    return {n: sum(r["total"][n] for r in setup)
            + sum(r["total"][n] for r in ops) / len(ops) for n in names}


def units():
    return dict([(name, unit) for name, unit, _, _ in METRICS] + [TRACED_WALL])
