"""The benchmark's workloads.

Each workload builds a swagppm config whose master seed is the workload
seed, runs one operation through swagppm's public entry points, and turns
what the operation returned into an outcome for check.py. Outcomes are built
after the operation's timer stops.

- bench-default: `pipeline.run_benchmark` at the default config, exactly what
  `swagppm benchmark` runs, with every artefact written. The posterior
  sampler dominates, and it is the only workload that writes files.
- release-mlp-large: one reweighted release (`pipeline.run_swag_ppm`, no out
  dir) of a one-hidden-layer MLP on a ten times larger corpus, then
  `evaluate`. Model math, scoring and the memory held by S parameter vectors
  and the S x n score matrix show here; there is no accountant and no I/O.
- dp-sweep-large: DP-SGD (`pipeline.run_dp_sgd`) on the same corpus and model
  at the base delta and every delta of the sweep, each model evaluated. The
  clipped-gradient path and the accountant work; swag and ppm do nothing.
"""

import os

import numpy as np

from swagppm import params, pipeline, ppm

from check import theta_sha256

LARGE = ["data.synthetic.total_records=40000", "data.cap=2000",
         'model.family="mlp-1-hidden"', "model.hidden_dim=32"]


def config(workload, seed):
    cfg = pipeline.load_config(None, WORKLOADS[workload]["overrides"])
    cfg["seed"] = seed
    return cfg


def _f1(ev):
    return {"weighted_f1": ev["weighted_f1"], "macro_f1": ev["macro_f1"]}


def _row_f1(row):
    return {"weighted_f1": row.weighted_f1, "macro_f1": row.macro_f1}


def _swag_method(f1, res):
    return dict(f1, epsilon=res.epsilon, delta=res.report.delta,
                theta_sha256=theta_sha256(res.released_theta.values))


def _dp_entry(f1, sigma, budget, target):
    return dict(f1, sigma=sigma, epsilon=budget.epsilon,
                target_epsilon=target)


# --- bench-default -----------------------------------------------------------

def run_bench_default(cfg, train, test, out_dir):
    return pipeline.run_benchmark(cfg, out_dir)


# run_benchmark's swag rows, the key of their result in aux, their out dir,
# and the round whose score matrix gives the reported Delta
_SWAG_ROWS = [("swag-ppm", "swag_ppm", "swag_ppm", "round2"),
              ("swag-ppm-reweighted", "swag_ppm_rw", "swag_ppm_rw", "round3")]


def outcome_bench_default(cfg, result, out_dir):
    rows, sweep_rows, aux = result
    errors = ["%s delta=%s: %s" % (r.name, r.delta, r.error)
              for r in rows + sweep_rows if r.error]
    methods = {}
    for row in rows:
        methods[row.name] = _row_f1(row)
        if row.epsilon is not None:
            methods[row.name]["epsilon"] = row.epsilon
    equal = []
    for name, key, sub, final_round in _SWAG_ROWS:
        if key not in aux:
            continue  # the row's error is already listed
        res = aux[key]
        methods[name] = _swag_method(methods[name], res)
        run_dir = os.path.join(out_dir, sub)
        abs_ll = np.load(os.path.join(run_dir, "internal",
                                      final_round + "_abs_ll.npy"))
        equal.append([
            "%s: Delta recomputed from %s_abs_ll.npy" % (name, final_round),
            ppm.sensitivity(abs_ll, res.weights.alpha,
                            res.report.record_ids).delta,
            res.report.delta])
        on_disk, _ = params.load_checkpoint(
            os.path.join(run_dir, "release", "released_model.bin"))
        equal.append(["%s: sha256 of release/released_model.bin" % name,
                      theta_sha256(on_disk.values),
                      methods[name]["theta_sha256"]])
    target = cfg["dp_sgd"]["target_epsilon"]
    dp_rows = [r for r in rows if r.name == "dp-sgd"] + sweep_rows
    dp_sgd = {}
    for delta, (sigma, budget) in aux["dp_budgets"].items():
        row = next(r for r in dp_rows if r.delta == repr(delta))
        dp_sgd[repr(delta)] = _dp_entry(_row_f1(row), sigma, budget, target)
    swag_res = aux.get("swag_ppm")
    return {
        "fingerprint": {"methods": methods, "dp_sgd": dp_sgd},
        "equal": equal,
        "errors": errors,
        "shape": {"n": len(aux["train_view"]),
                  "p": len(swag_res.released_theta) if swag_res else None,
                  "S": swag_res.report.num_draws if swag_res else None},
    }


# --- release-mlp-large -------------------------------------------------------

def run_release(cfg, train, test, out_dir):
    res = pipeline.run_swag_ppm(cfg, train, reweighted=True)
    spec = pipeline.model_spec(cfg, train.num_classes, train.feature_dim)
    return res, pipeline.evaluate(spec, res.released_theta, test), len(train)


def outcome_release(cfg, result, out_dir):
    res, ev, n = result
    return {
        "fingerprint": {"methods": {
            "swag-ppm-reweighted": _swag_method(_f1(ev), res)}},
        "equal": [],
        "errors": [],
        "shape": {"n": n, "p": len(res.released_theta),
                  "S": res.report.num_draws},
    }


# --- dp-sweep-large ----------------------------------------------------------

def run_dp_sweep(cfg, train, test, out_dir):
    spec = pipeline.model_spec(cfg, train.num_classes, train.feature_dim)
    runs = []
    for delta in [cfg["dp_sgd"]["delta"]] + list(cfg["delta_sweep"]):
        theta, sigma, budget = pipeline.run_dp_sgd(cfg, train, delta)
        runs.append((delta, theta, sigma, budget,
                     pipeline.evaluate(spec, theta, test)))
    return runs, len(train), spec.num_params


def outcome_dp_sweep(cfg, result, out_dir):
    runs, n, p = result
    target = cfg["dp_sgd"]["target_epsilon"]
    dp_sgd = {}
    for delta, theta, sigma, budget, ev in runs:
        dp_sgd[repr(delta)] = dict(
            _dp_entry(_f1(ev), sigma, budget, target),
            theta_sha256=theta_sha256(theta.values))
    return {"fingerprint": {"dp_sgd": dp_sgd}, "equal": [], "errors": [],
            "shape": {"n": n, "p": p, "S": 0}}


WORKLOADS = {
    "bench-default": {"overrides": [], "run": run_bench_default,
                      "outcome": outcome_bench_default, "writes": True},
    "release-mlp-large": {"overrides": LARGE, "run": run_release,
                          "outcome": outcome_release, "writes": False},
    "dp-sweep-large": {"overrides": LARGE, "run": run_dp_sweep,
                       "outcome": outcome_dp_sweep, "writes": False},
}
