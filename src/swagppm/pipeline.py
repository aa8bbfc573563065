"""End-to-end orchestration: data prep, the three-round weighted training
flow, the DP-SGD and non-private baselines, and benchmark report emission."""

import copy
import csv
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import accountant, data, metrics, models, ppm, swag, trainer
from .params import is_integer, is_number, save_checkpoint


class ConfigError(ValueError):
    pass


class PhaseError(RuntimeError):
    def __init__(self, phase, cause):
        super().__init__("phase %r failed: %s" % (phase, cause))
        self.phase = phase
        self.cause = cause


SCHEMA_VERSION = 1

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "seed": 20250824,
    "data": {
        "synthetic": {
            "num_classes": 20,
            "zipf_exponent": 1.2,
            "total_records": 4000,
            "vocab_size": 2000,
            "tokens_per_record": [6, 16],
            "class_signal_strength": 0.6,
            "feature_dim": 2048,
        },
        "csv_path": None,
        "cap": 200,
        "sampling_fraction": 1.0,
        "train_fraction": 0.5,
    },
    "model": {
        "family": models.SOFTMAX_LINEAR,
        "hidden_dim": 0,
        "weight_decay": 1e-4,
    },
    "phases": {
        "finetune_epochs": 10,
        "finetune_lr": 0.01,
        "batch_size": 64,
        "swag_epochs": 20,
        "swag_lr": 0.03,
        "swag_rank": 20,
        "draws": 500,
        "c": 1.0,
        "g": 0.0,
        "k": 0.95,
    },
    "dp_sgd": {
        "target_epsilon": 4.0,
        "delta": 1e-4,
        "clip_norm": 1.0,
        "batch_size": 512,
        "learning_rate": 0.001,
        "epochs": 30,
    },
    "nonprivate": {
        "epochs": 30,
        "learning_rate": 0.01,
        "batch_size": 64,
    },
    "delta_sweep": [1e-3, 1e-2, 0.1, 0.99],
}


def _merge(section, update, path):
    """Merge update into a config section key by key, rejecting unknown
    keys. A subsection is merged in turn, never replaced by a value, and a
    value is never replaced by a section."""
    if not isinstance(update, dict):
        raise ConfigError("%s is a section, not a value: %r"
                          % (path or "the config", update))
    for key, value in update.items():
        where = "%s.%s" % (path, key) if path else key
        if key not in section:
            raise ConfigError("unknown config key %r" % where)
        if isinstance(section[key], dict):
            _merge(section[key], value, where)
        elif isinstance(value, dict):
            raise ConfigError("%s is a value, not a section" % where)
        else:
            section[key] = value


def load_config(obj=None, overrides=None):
    """Merge a (partial) config dict over the defaults, rejecting unknown
    keys, then each dotted key=value override, which sets one value."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    _merge(cfg, {} if obj is None else obj, "")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("override %r is not key=value" % item)
        dotted, raw = item.split("=", 1)
        update = json.loads(raw)
        if isinstance(update, dict):
            raise ConfigError("override %r sets a section, not a value"
                              % item)
        for part in reversed(dotted.split(".")):
            update = {part: update}
        _merge(cfg, update, "")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError("unsupported schema_version %r"
                          % cfg["schema_version"])
    return cfg


def derive_seed(master, tag):
    """Stable per-phase seed from the master seed and a phase tag."""
    digest = hashlib.sha256(("%d/%s" % (master, tag)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def prepare_data(cfg):
    """Generate or ingest, cap-sample, and split; returns (train, test).
    _check_settings runs first, so a bad setting raises ConfigError before
    any record is built; a CSV file that fails to load raises DataError."""
    spec = _check_settings(cfg)
    master, dc = cfg["seed"], cfg["data"]
    dataset = (data.load_csv(dc["csv_path"], spec.feature_dim)
               if dc["csv_path"] else data.generate(spec))
    dataset = data.stratified_cap_sample(
        dataset, cap=dc["cap"], fraction=dc["sampling_fraction"],
        seed=derive_seed(master, "cap"))
    return data.stratified_split(dataset, dc["train_fraction"],
                                 seed=derive_seed(master, "split"))


def model_spec(cfg, num_classes, feature_dim):
    """The config's model; a setting it rejects raises ConfigError."""
    mc = cfg["model"]
    try:
        return models.ModelSpec(mc["family"], feature_dim, num_classes,
                                mc["hidden_dim"], mc["weight_decay"])
    except (TypeError, ValueError) as e:  # ModelError is a ValueError
        raise ConfigError("model: %s" % e) from None


# recipe: (optimizer, config section, learning-rate key, epochs key)
_RECIPES = {
    "finetune": (trainer.ADAPTIVE, "phases", "finetune_lr",
                 "finetune_epochs"),
    "swag": (trainer.SGD_CONSTANT, "phases", "swag_lr", "swag_epochs"),
    "nonprivate": (trainer.ADAPTIVE, "nonprivate", "learning_rate", "epochs"),
    "dp-sgd": (trainer.DP_SGD, "dp_sgd", "learning_rate", "epochs"),
}


def _train_config(cfg, recipe, seed_tag, batch_size=None, sigma=None):
    """The TrainConfig of a recipe, seeded from seed_tag. DP-SGD takes the
    batch size it trains with (default: the section's) and sigma."""
    optimizer, section, lr, epochs = _RECIPES[recipe]
    sc = cfg[section]
    return trainer.TrainConfig(
        optimizer, sc[lr], batch_size or sc["batch_size"], sc[epochs],
        derive_seed(cfg["seed"], seed_tag), sc.get("clip_norm"), sigma)


def _check_settings(cfg):
    """The one judge of a config, run before any record is built: the table
    below, the model section, the data.synthetic section as the
    data.SyntheticSpec it returns, and each recipe's TrainConfig (DP-SGD's
    at the configured batch size and sigma 0). A CSV run reads only
    feature_dim, the width it hashes into, so its spec takes the default
    section with that value. A bad value or type raises ConfigError naming
    its key or section."""
    dc, ph, dp = cfg["data"], cfg["phases"], cfg["dp_sgd"]
    unit = (lambda v: is_number(v) and 0 < v < 1, "in (0, 1)")
    count = (lambda v: is_integer(v) and v >= 1, "an integer >= 1")
    for key, value, ok, want in [
            ("seed", cfg["seed"], is_integer, "an integer"),
            ("data.csv_path", dc["csv_path"],
             lambda v: v is None or isinstance(v, str) and v != "",
             "null or a non-empty string"),
            ("data.cap", dc["cap"], lambda v: is_integer(v) and v >= 2,
             "an integer >= 2"),
            ("data.sampling_fraction", dc["sampling_fraction"],
             lambda v: is_number(v) and 0 < v <= 1, "in (0, 1]"),
            ("data.train_fraction", dc["train_fraction"]) + unit,
            ("phases.k", ph["k"]) + unit,
            ("phases.c", ph["c"], lambda v: is_number(v) and v >= 0, ">= 0"),
            ("phases.g", ph["g"], is_number, "a number"),
            ("phases.draws", ph["draws"]) + count,
            ("phases.swag_rank", ph["swag_rank"]) + count,
            ("dp_sgd.target_epsilon", dp["target_epsilon"],
             lambda v: is_number(v) and v > 0, "> 0"),
            ("dp_sgd.delta", dp["delta"]) + unit,
            ("delta_sweep", cfg["delta_sweep"],
             lambda v: all(unit[0](d) for d in v),
             "a list of deltas in (0, 1)")]:
        try:
            good = ok(value)
        except TypeError:
            good = False
        if not good:
            raise ConfigError("%s must be %s, got %r" % (key, want, value))
    model_spec(cfg, 2, 1)
    sc = dc["synthetic"]
    if dc["csv_path"]:
        sc = dict(DEFAULT_CONFIG["data"]["synthetic"],
                  feature_dim=sc["feature_dim"])
    try:
        spec = data.SyntheticSpec(
            **dict(sc, tokens_per_record=tuple(sc["tokens_per_record"])),
            seed=derive_seed(cfg["seed"], "data"))
    except (TypeError, ValueError) as e:  # DataError is a ValueError
        raise ConfigError("data.synthetic: %s" % e) from None
    for recipe in _RECIPES:
        try:
            _train_config(cfg, recipe, recipe, sigma=0.0)
        except trainer.TrainError as e:
            raise ConfigError("%s training: %s" % (recipe, e)) from None
    return spec


def _train_round(spec, theta0, X, y, weights, cfg, seed_tag):
    """One fine-tune + constant-lr SWAG round; returns the moment accumulator."""
    theta, _ = trainer.train(spec, theta0, X, y,
                             _train_config(cfg, "finetune", seed_tag + "/ft"),
                             weights)
    moments = swag.SwagMoments(theta0.layout,
                               k_max=cfg["phases"]["swag_rank"])
    _, snapshots = trainer.train(
        spec, theta, X, y, _train_config(cfg, "swag", seed_tag + "/swag"),
        weights)
    return moments.absorb(*(snap.theta for snap in snapshots))


@dataclass
class SwagPpmResult:
    released_theta: object
    report: ppm.SensitivityReport
    weights: ppm.RiskWeights
    moments: swag.SwagMoments

    @property
    def epsilon(self):
        return self.report.epsilon


# Per round: the phase that scores its draws, and the weights file it
# writes (round 1 the initial weights, round 3 the reweighted ones).
_ROUNDS = [("risks", "weights_initial.csv"), ("sensitivity", None),
           ("sensitivity-reweighted", "weights_reweighted.csv")]


def _phase(name, fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - annotate phase and re-raise
        raise PhaseError(name, e) from e


def _score_draws(spec, draws, count, X, y, alpha, ids, abs_ll_path=None):
    """Score each of the count draws as it is made and fold it into the
    weighted sensitivity; no draw outlives its row. With a path, each |ll|
    row is also written, as it is scored, into a (count, n) .npy file,
    which a failure removes rather than leave it partly written."""
    rows = ppm.abs_loglik_rows(spec, draws, X, y)
    if not abs_ll_path:
        return ppm.sensitivity(rows, alpha, ids)
    sink = np.lib.format.open_memmap(abs_ll_path, mode="w+",
                                     dtype=np.float64,
                                     shape=(count, len(ids)))

    def written():
        for s, row in enumerate(rows):
            sink[s] = row
            yield row

    try:
        report = ppm.sensitivity(written(), alpha, ids)
        sink.flush()
    except BaseException:
        os.remove(abs_ll_path)
        raise
    return report


def _swag_rounds(cfg, train_view, out_dir=None):
    """The fine-tune + SWAG rounds in order, run one per step of the
    generator, each yielding (round, moments, weights, report): round 1 the
    initial weights and no report, round 2 the sensitivity report under
    them, round 3 the reweighted weights and their report. With out_dir,
    each round writes its artefacts once, into out_dir/internal. A round
    drops the previous round's moments before it trains."""
    ph = cfg["phases"]
    master = cfg["seed"]
    internal = out_dir and os.path.join(out_dir, "internal")
    if internal:
        os.makedirs(internal, exist_ok=True)
    X = train_view.feature_matrix()
    y = train_view.labels
    ids = train_view.ids
    spec = model_spec(cfg, train_view.num_classes, train_view.feature_dim)
    theta0 = models.init_params(spec, derive_seed(master, "init"))

    weights = report = None
    for r, (score_phase, weights_csv) in enumerate(_ROUNDS, start=1):
        if r == 3:
            weights = _phase("reweight", ppm.reweight, weights, report,
                             ph["k"])
        tag = "round%d" % r
        moments = None  # so two rounds' moments never coexist
        moments = _phase("swag-round-%d" % r, _train_round, spec, theta0, X,
                         y, None if weights is None else weights.alpha,
                         cfg, tag)
        draws = _phase("draws-round-%d" % r, moments.draws, ph["draws"],
                       derive_seed(master, "draws%d" % r))
        # round 1 scores unweighted: its per-record maxima are the risks
        alpha = np.ones(len(ids)) if weights is None else weights.alpha
        abs_ll = internal and os.path.join(internal, tag + "_abs_ll.npy")
        scores = _phase(score_phase, _score_draws, spec, draws, ph["draws"],
                        X, y, alpha, ids, abs_ll)
        if weights is None:
            weights = ppm.map_weights(ids, scores.per_record, ph["c"],
                                      ph["g"])
        else:
            report = scores
        if internal:
            swag.save_moments(os.path.join(internal, tag + "_moments.bin"),
                              moments)
            if weights_csv:
                ppm.save_weights_csv(os.path.join(internal, weights_csv),
                                     weights)
        yield r, moments, weights, report


def _run_to_round(rounds, last):
    """(moments, weights, report) of round `last`, running the _swag_rounds
    generator up to it; no earlier round is held while the next one runs."""
    for r, *state in rounds:
        if r == last:
            return state
        del state


def _release(cfg, moments, weights, report, out_dir=None):
    """The one released draw, kept apart from the internal draws, and with
    out_dir its checkpoint under release/ and its privacy report."""
    released = moments.sample(1, derive_seed(cfg["seed"], "release"))[0]
    result = SwagPpmResult(released, report, weights, moments)
    if out_dir:
        os.makedirs(os.path.join(out_dir, "release"), exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "release", "released_model.bin"),
                        released, {"epsilon": result.epsilon})
        ppm.save_report_json(os.path.join(out_dir, "privacy_report.json"),
                             report)
    return result


def run_swag_ppm(cfg, train_view, out_dir=None, reweighted=False):
    """Figure-of-merit pipeline: two (or three, reweighted) fine-tune + SWAG
    rounds, risk-based weights in between, epsilon from the final draws,
    and a single released draw kept apart from the internal draws."""
    rounds = _swag_rounds(cfg, train_view, out_dir)
    return _release(cfg, *_run_to_round(rounds, 3 if reweighted else 2),
                    out_dir)


def dp_schedule(cfg, n, delta=None):
    """DP-SGD (batch size, sampling rate q, step count, sigma) for n train
    records; sigma meets the target epsilon at delta, the config's if None."""
    dp = cfg["dp_sgd"]
    batch = min(dp["batch_size"], n)
    q, steps = batch / n, dp["epochs"] * (-(-n // batch))
    delta = dp["delta"] if delta is None else delta
    return batch, q, steps, accountant.calibrate_noise(
        dp["target_epsilon"], delta, q, steps)


def run_dp_sgd(cfg, train_view, delta=None):
    """DP-SGD baseline with sigma calibrated to the target epsilon."""
    delta = cfg["dp_sgd"]["delta"] if delta is None else delta
    batch, q, steps, sigma = dp_schedule(cfg, len(train_view), delta)
    spec = model_spec(cfg, train_view.num_classes, train_view.feature_dim)
    theta0 = models.init_params(spec, derive_seed(cfg["seed"], "init"))
    theta, _ = trainer.train(
        spec, theta0, train_view.feature_matrix(), train_view.labels,
        _train_config(cfg, "dp-sgd", "dp-sgd", batch, sigma))
    budget = accountant.to_dp(
        accountant.compose(accountant.RdpLedger(q, sigma), steps), delta)
    return theta, sigma, budget


def run_nonprivate(cfg, train_view):
    spec = model_spec(cfg, train_view.num_classes, train_view.feature_dim)
    theta0 = models.init_params(spec, derive_seed(cfg["seed"], "init"))
    theta, _ = trainer.train(
        spec, theta0, train_view.feature_matrix(), train_view.labels,
        _train_config(cfg, "nonprivate", "nonprivate"))
    return theta


def predict(spec, theta, view):
    """Argmax predictions; np.argmax breaks ties toward the lowest index."""
    P = models.forward_batch(spec, theta, view.feature_matrix())
    return P.argmax(axis=1)


def evaluate(spec, theta, test_view):
    y_pred = predict(spec, theta, test_view)
    tally = metrics.tally_from_predictions(test_view.labels, y_pred,
                                           test_view.num_classes)
    return {
        "tally": tally,
        "f1_per_class": metrics.f1_per_class(tally),
        "weighted_f1": metrics.weighted_f1(tally),
        "macro_f1": metrics.macro_f1(tally),
    }


@dataclass
class BenchmarkRow:
    name: str
    epsilon: Optional[float]
    delta: str
    weighted_f1: float
    macro_f1: float
    f1_per_class: np.ndarray
    wall_clock: float
    error: Optional[str] = None


def run_benchmark(cfg, out_dir=None):
    """Train the four comparators on a shared split, plus the DP-SGD delta
    sweep, and emit the summary / per-class / sweep tables."""
    train_view, test_view = prepare_data(cfg)
    spec = model_spec(cfg, train_view.num_classes, train_view.feature_dim)
    aux = {"train_view": train_view, "test_view": test_view}

    def bench(name, delta, fn):
        """fn returns (theta, epsilon); a failure becomes an error row."""
        start = time.time()
        try:
            theta, epsilon = fn()
            ev = evaluate(spec, theta, test_view)
            return BenchmarkRow(name, epsilon, delta, ev["weighted_f1"],
                                ev["macro_f1"], ev["f1_per_class"],
                                time.time() - start)
        except Exception as e:  # noqa: BLE001 - record and continue
            return BenchmarkRow(name, None, delta, float("nan"), float("nan"),
                                np.full(test_view.num_classes, np.nan),
                                time.time() - start,
                                error=str(e) or type(e).__name__)

    # the swag rows share rounds 1-2, written into swag_ppm_rw/; the plain row
    # copies them out after round 2, leaving out any earlier run's round 3
    dirs = {key: os.path.join(out_dir, key) if out_dir else None
            for key in ("swag_ppm", "swag_ppm_rw")}
    rounds = _swag_rounds(cfg, train_view, dirs["swag_ppm_rw"])
    round_error = None

    def swag_run(key, last):
        nonlocal round_error
        if round_error is not None:
            raise round_error  # a shared round failed for the first row
        try:
            state = _run_to_round(rounds, last)
        except Exception as e:
            round_error = e
            raise
        if key == "swag_ppm":
            aux["weights"] = state[1]  # round 2's: the initial weights
            if out_dir:
                shutil.copytree(
                    os.path.join(dirs["swag_ppm_rw"], "internal"),
                    os.path.join(dirs[key], "internal"),
                    ignore=shutil.ignore_patterns("round3_*", _ROUNDS[2][1]),
                    dirs_exist_ok=True)
        res = _release(cfg, *state, out_dir=dirs[key])
        aux[key] = res
        return res.released_theta, res.epsilon

    dp_out = {}

    def dp_run(delta):
        theta, sigma, budget = run_dp_sgd(cfg, train_view, delta)
        dp_out[delta] = (sigma, budget)
        return theta, cfg["dp_sgd"]["target_epsilon"]

    base_delta = cfg["dp_sgd"]["delta"]
    rows = [
        bench("non-private", "-",
              lambda: (run_nonprivate(cfg, train_view), None)),
        bench("swag-ppm", "O(n^-1/2)", lambda: swag_run("swag_ppm", 2)),
        bench("swag-ppm-reweighted", "O(n^-1/2)",
              lambda: swag_run("swag_ppm_rw", 3)),
        bench("dp-sgd", repr(base_delta), lambda: dp_run(base_delta)),
    ]
    sweep_rows = [bench("dp-sgd", repr(delta), lambda: dp_run(delta))
                  for delta in cfg["delta_sweep"]]
    aux["dp_budgets"] = dp_out
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_reports(out_dir, cfg, rows, sweep_rows, aux)
    return rows, sweep_rows, aux


def _fmt_eps(row):
    return "-" if row.epsilon is None else "%.4g" % row.epsilon


def _row_cells(row):
    """One summary / delta-sweep table row."""
    return [row.name, _fmt_eps(row), row.delta, "%.4f" % row.weighted_f1,
            "%.4f" % row.macro_f1]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_reports(out_dir, cfg, rows, sweep_rows, aux):
    train_view = aux["train_view"]
    test_view = aux["test_view"]
    train_counts = train_view.class_counts()
    by_name = {row.name: row for row in rows}

    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["model", "epsilon", "delta", "f1_weighted", "f1_macro"],
               [_row_cells(row) for row in rows])
    swag_row = by_name.get("swag-ppm")
    _write_csv(os.path.join(out_dir, "delta_sweep.csv"),
               ["method", "target_epsilon", "delta", "f1_weighted",
                "f1_macro"],
               [_row_cells(row)
                for row in sweep_rows + ([swag_row] if swag_row else [])])

    # per_class.csv, and the data behind the F1-by-class-size figure
    for name, size_column, counts in (
            ("per_class.csv", "test_size", test_view.class_counts()),
            ("f1_by_class_size.csv", "train_size", train_counts)):
        _write_csv(
            os.path.join(out_dir, name),
            ["code", size_column, "f1_nonprivate", "f1_swagppm", "f1_dpsgd"],
            [[test_view.label_names[c], int(counts[c])] + [
                "%.4f" % by_name[m].f1_per_class[c] if m in by_name else ""
                for m in ("non-private", "swag-ppm", "dp-sgd")]
             for c in range(test_view.num_classes)])

    if "weights" in aux:  # data behind the weight-density figure
        # the weights were mapped from train_view.ids, so the arrays align
        top, bottom = metrics.quartile_class_sets(train_counts)
        quartile = np.full(train_view.num_classes, "mid", dtype=object)
        quartile[top] = "top"
        quartile[bottom] = "bottom"
        _write_csv(
            os.path.join(out_dir, "weight_density.csv"),
            ["record_id", "class", "size_quartile", "alpha"],
            [[int(rid), train_view.label_names[c], quartile[c],
              repr(float(alpha))]
             for rid, c, alpha in zip(train_view.ids, train_view.labels,
                                      aux["weights"].alpha)])

    with open(os.path.join(out_dir, "summary.md"), "w") as f:
        f.write("| model | epsilon | delta | f1_weighted | f1_macro |\n")
        f.write("|---|---|---|---|---|\n")
        for row in rows:
            f.write("| %s |\n" % " | ".join(_row_cells(row)))

    manifest = {
        "config": cfg,
        "input_hash": train_view.provenance,
        "train_manifest": train_view.manifest(),
        "test_manifest": test_view.manifest(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, default=str)
