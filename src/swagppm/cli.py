"""Command-line entry points for the training pipeline and reports."""

import argparse
import csv
import json
import os
import sys

from . import (accountant, data, metrics, models, params, pipeline, ppm, swag,
               trainer)
from .params import save_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHASE = 3

# A typed error or an OSError that escapes a subcommand is its failure.
SUBCOMMAND_ERRORS = (accountant.AccountantError, data.DataError,
                     metrics.MetricsError, models.ModelError,
                     params.LayoutError, ppm.PpmError, swag.SwagError,
                     trainer.TrainError, OSError)


def _setup(args):
    """Config (with --seed applied) and the created output directory; a bad
    --config (unreadable or not JSON) or --out is a ConfigError naming it."""
    obj = None
    if args.config:
        try:
            with open(args.config) as f:
                obj = json.load(f)
        except (OSError, ValueError) as e:  # unreadable, or not JSON
            raise pipeline.ConfigError("--config: %s" % e) from None
    cfg = pipeline.load_config(obj, args.override)
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:  # a file, or no permission
        raise pipeline.ConfigError("--out: %s" % e) from None
    return cfg, args.out


def _prepare(args):
    """(cfg, out, train, test, spec) shared by the single-method commands."""
    cfg, out = _setup(args)
    train_view, test_view = pipeline.prepare_data(cfg)
    spec = pipeline.model_spec(cfg, train_view.num_classes,
                               train_view.feature_dim)
    return cfg, out, train_view, test_view, spec


def _f1_line(ev):
    return "weighted F1 %.4f, macro F1 %.4f" % (ev["weighted_f1"],
                                               ev["macro_f1"])


def cmd_generate_data(args):
    cfg, out, train_view, test_view, _ = _prepare(args)
    data.save_manifest(os.path.join(out, "train_manifest.json"), train_view)
    data.save_manifest(os.path.join(out, "test_manifest.json"), test_view)
    print("train: %d records, %d classes, gini=%.3f"
          % (len(train_view), train_view.num_classes,
             data.gini(train_view.class_counts())))
    print("test:  %d records" % len(test_view))
    return EXIT_OK


def cmd_train(args):
    cfg, out, train_view, test_view, spec = _prepare(args)
    theta = pipeline.run_nonprivate(cfg, train_view)
    ev = pipeline.evaluate(spec, theta, test_view)
    save_checkpoint(os.path.join(out, "model.bin"), theta,
                    {"model": "non-private"})
    print("non-private: " + _f1_line(ev))
    return EXIT_OK


def cmd_swag_ppm(args):
    """`swag-ppm`, and `swag-ppm-rw` with the reweighting round."""
    cfg, out, train_view, test_view, spec = _prepare(args)
    result = pipeline.run_swag_ppm(
        cfg, train_view, out_dir=out,
        reweighted=args.command == "swag-ppm-rw")
    ev = pipeline.evaluate(spec, result.released_theta, test_view)
    print("epsilon = %.4f (2 * Delta, Delta = %.4f)"
          % (result.epsilon, result.report.delta))
    print(_f1_line(ev))
    return EXIT_OK


def cmd_dp_sgd(args):
    cfg, out, train_view, test_view, spec = _prepare(args)
    theta, sigma, budget = pipeline.run_dp_sgd(cfg, train_view)
    ev = pipeline.evaluate(spec, theta, test_view)
    save_checkpoint(os.path.join(out, "dp_sgd_model.bin"), theta,
                    {"model": "dp-sgd", "sigma": sigma,
                     "epsilon": budget.epsilon, "delta": budget.delta})
    print("sigma = %.4f, realized (epsilon, delta) = (%.4f, %g)"
          % (sigma, budget.epsilon, budget.delta))
    print(_f1_line(ev))
    return EXIT_OK


def cmd_account(args):
    """RDP ledger and (epsilon, delta) frontier of the DP-SGD run that
    `dp-sgd` trains: same data, same schedule, same sigma."""
    cfg, out, train_view, _, _ = _prepare(args)
    dp = cfg["dp_sgd"]
    _, q, steps = pipeline._dp_steps(cfg, len(train_view))
    sigma = accountant.calibrate_noise(dp["target_epsilon"], dp["delta"], q,
                                       steps)
    ledger = accountant.compose(accountant.RdpLedger(q, sigma), steps)
    frontier = [["delta", "epsilon", "order"]]
    for delta in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.99):
        budget = accountant.to_dp(ledger, delta)
        frontier.append([delta, "%.6f" % budget.epsilon, budget.order])
    csv.writer(sys.stdout).writerows(frontier)
    with open(os.path.join(out, "frontier.csv"), "w", newline="") as f:
        csv.writer(f).writerows(frontier)
    with open(os.path.join(out, "ledger.json"), "w") as f:
        json.dump(accountant.ledger_to_dict(ledger), f, indent=1)
    print("sigma = %.4f for target epsilon %g at delta %g (q=%.4f, T=%d)"
          % (sigma, dp["target_epsilon"], dp["delta"], q, steps),
          file=sys.stderr)
    return EXIT_OK


def cmd_benchmark(args):
    cfg, out = _setup(args)
    rows, sweep_rows, _ = pipeline.run_benchmark(cfg, out_dir=out)
    # the delta sweep's rows are printed only when they failed
    failed_sweep = [row for row in sweep_rows if row.error is not None]
    for row in rows + failed_sweep:
        print("%-22s eps=%-8s delta=%-10s wF1=%.4f mF1=%.4f %s"
              % (row.name, pipeline._fmt_eps(row), row.delta,
                 row.weighted_f1, row.macro_f1,
                 "" if row.error is None else "FAILED: " + row.error))
    if failed_sweep or any(row.error is not None for row in rows):
        return EXIT_PHASE
    print("reports written to %s" % out)
    return EXIT_OK


def cmd_report(args):
    path = os.path.join(args.out, "summary.md")
    if not os.path.exists(path):
        raise pipeline.ConfigError("no summary at %s; run `benchmark` first"
                                   % path)
    try:
        with open(path, encoding="utf-8") as f:
            print(f.read())
    except UnicodeDecodeError as e:  # a ValueError, not an OSError
        raise pipeline.PhaseError("report", "%s: %s" % (path, e)) from None
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swagppm",
        description="Private classifier release via posterior-draw "
                    "mechanisms, with a DP-SGD baseline.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", default="runs/latest",
                        help="output directory (default: %(default)s)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted config override, value parsed as JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("generate-data", cmd_generate_data),
                     ("train", cmd_train),
                     ("swag-ppm", cmd_swag_ppm),
                     ("swag-ppm-rw", cmd_swag_ppm),
                     ("dp-sgd", cmd_dp_sgd),
                     ("account", cmd_account),
                     ("benchmark", cmd_benchmark),
                     ("report", cmd_report)]:
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except pipeline.ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except pipeline.PhaseError as e:
        print("phase failure: %s" % e, file=sys.stderr)
        return EXIT_PHASE
    except SUBCOMMAND_ERRORS as e:
        print("phase failure: %s" % pipeline.PhaseError(args.command, e),
              file=sys.stderr)
        return EXIT_PHASE


if __name__ == "__main__":
    sys.exit(main())
