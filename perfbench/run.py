"""Benchmark for swagppm's release pipeline.

One run measures one workload in its own process:

    python3 perfbench/run.py --workload bench-default --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
--trace 1 wraps swagppm's public functions with spans and reports the
per-layer metrics instead. `--workload all` runs every workload, each in a
fresh process, and prints one table. Every operation's outputs are checked
(see check.py); an operation that raises, reports an error or fails the
check counts as failed, and error rate = failed / attempted.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (host, provenance, every
operation's fingerprint and problems, and with --trace 1 the spans) is
written under perfbench/out/.

--record stores the run's fingerprint, and with --trace 1 its counts, as the
reference for this workload and seed in perfbench/references/.
"""

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references")

# Set-up is repeated and its median reported, because one prepare_data on
# the large corpus varies by more than a tenth from run to run.
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def limit_blas_threads():
    """Use at most one BLAS thread per CPU this process may run on. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc, {var: os.environ[var] for var in BLAS_VARS}


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def reference_path(workload):
    return os.path.join(REFERENCES, workload + ".json")


def load_references(workload):
    try:
        with open(reference_path(workload)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, name))
               for d, _, names in os.walk(path) for name in names)


def untraced_wall(workload):
    """Median wall_s of the untraced runs of this workload recorded under
    perfbench/out/results, or None."""
    walls = []
    for path in glob.glob(os.path.join(OUT, "results",
                                       workload + "-seed*-trace0.json")):
        with open(path) as f:
            walls.append(json.load(f)["metrics"]["wall_s"]["value"])
    return statistics.median(walls) if walls else None


def write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def run_workload(args):
    nproc, blas = limit_blas_threads()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import swagppm
    from swagppm import pipeline

    import check
    import layers
    import spans
    import workloads
    import_s = time.perf_counter() - start
    if not os.path.abspath(swagppm.__file__).startswith(SRC + os.sep):
        print("perfbench: swagppm was imported from %s, not from %s"
              % (swagppm.__file__, SRC), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; choose from %s or all"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    cfg = workloads.config(args.workload, args.seed)
    references = load_references(args.workload)
    stored = {} if args.record else references.get(str(args.seed), {})

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        layers.install(tracer)

    def root(name):
        return tracer.root(name) if tracer else contextlib.nullcontext()

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        train = test = None  # free the last copy before building the next
        t = time.perf_counter()
        with root(layers.SETUP):
            train, test = pipeline.prepare_data(cfg)
        setup_times.append(time.perf_counter() - t)

    out_dir = (os.path.join(OUT, "work", args.workload) if wl["writes"]
               else None)
    ops = []
    first_fingerprint = None
    loop_start = time.perf_counter()
    while True:
        if out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
        errors, result, outcome = [], None, None
        t = time.perf_counter()
        with root(layers.OP) as idx:
            try:
                result = wl["run"](cfg, train, test, out_dir)
            except Exception as e:  # noqa: BLE001 - a failed operation
                traceback.print_exc()
                errors.append("operation raised %s: %s"
                              % (type(e).__name__, e))
        op = {"wall_s": time.perf_counter() - t}
        with tracer.paused() if tracer else contextlib.nullcontext():
            if result is not None:
                try:
                    outcome = wl["outcome"](cfg, result, out_dir)
                except Exception as e:  # noqa: BLE001 - a failed check
                    traceback.print_exc()
                    errors.append("output check raised %s: %s"
                                  % (type(e).__name__, e))
            result = None
            if outcome is not None:
                errors.extend(check.problems(outcome,
                                             stored.get("fingerprint")))
                fp = outcome["fingerprint"]
                if first_fingerprint is None:
                    first_fingerprint = fp
                errors.extend("fingerprint differs from operation 1: " + d
                              for d in check.differences(fp,
                                                         first_fingerprint))
                op.update(fingerprint=fp, shape=outcome["shape"])
        if out_dir:
            op["bytes_written"] = dir_bytes(out_dir)
            if tracer:
                tracer.root_counts[idx]["io.bytes_written"] = \
                    op["bytes_written"]
        op["problems"] = errors
        ops.append(op)
        if time.perf_counter() - loop_start >= args.seconds:
            break

    failed = sum(1 for op in ops if op["problems"])
    wall_s = statistics.median(op["wall_s"] for op in ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": nproc,
            "blas_threads": blas,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "provenance": {
            "git_commit": git_commit(),
            "config_hash": hashlib.sha256(
                json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
            "config": cfg,
            "shape": next((op["shape"] for op in ops if "shape" in op), None),
            "reference_stored": "fingerprint" in stored,
        },
        "import_s": import_s,
        "setup_times_s": setup_times,
        "ops": ops,
        "error_rate": failed / len(ops),
    }

    if args.trace:
        roots = spans.summarize(tracer.spans)
        values, per_op = layers.layer_values(roots, tracer.root_counts)
        units = layers.units()
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        counts = {k: values[k] for k in layers.COUNT_METRICS}
        record["counter_flags"] = check.counter_flags(
            [{k: m[k] for k in layers.COUNT_METRICS} for m in per_op],
            counts, stored.get("counters"))
        record["inclusive_s"] = layers.inclusive_times(roots)
        record["self_time_check"] = [
            {"root": r["name"], "wall_s": r["wall"],
             "layer_self_s": sum(r["self"].values()),
             "ok": sum(r["self"].values()) <= r["wall"] + 1e-9}
            for r in roots]
        baseline = untraced_wall(args.workload)
        record["untraced_wall_s"] = baseline
        record["tracing_overhead_s"] = (None if baseline is None else
                                        values["trace.wall_s"] - baseline)
        spans_path = os.path.join(OUT, "spans", "%s-seed%d.jsonl"
                                  % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write_jsonl(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        tracer.restore()
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": wall_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    record["metrics"] = metrics

    if args.record:
        own = [p for op in ops for p in op["problems"]]
        if own:
            print("perfbench: not recording, the run has problems",
                  file=sys.stderr)
        else:
            entry = references.setdefault(str(args.seed), {})
            entry["fingerprint"] = first_fingerprint
            if args.trace:
                entry["counters"] = counts
            write_json(reference_path(args.workload), references)

    write_json(os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace)), record)
    report(record)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def report(record):
    """Human-readable summary of one run, printed before the result line."""
    shape = record["provenance"]["shape"] or {}
    print("workload %s seed %d trace %d: n=%s p=%s S=%s config %s"
          % (record["workload"], record["seed"], record["trace"],
             shape.get("n"), shape.get("p"), shape.get("S"),
             record["provenance"]["config_hash"][:16]))
    for name, m in record["metrics"].items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    failed = sum(1 for op in record["ops"] if op["problems"])
    print("  %-36s %14.6g (%d of %d operations failed)"
          % ("error_rate", record["error_rate"], failed, len(record["ops"])))
    if not record["provenance"]["reference_stored"]:
        print("  no stored fingerprint for this seed: invariants checked only")
    for i, op in enumerate(record["ops"], start=1):
        for problem in op["problems"]:
            print("  operation %d FAILED: %s" % (i, problem))
    for flag in record.get("counter_flags", []):
        print("  counter did not repeat: %s" % flag)
    for r in record.get("self_time_check", []):
        print("  %s: layer self time %.6g s of %.6g s traced%s"
              % (r["root"], r["layer_self_s"], r["wall_s"],
                 "" if r["ok"] else "  EXCEEDS WALL"))
    if record.get("tracing_overhead_s") is not None:
        print("  tracing overhead %.6g s (traced %.6g s - untraced %.6g s)"
              % (record["tracing_overhead_s"],
                 record["metrics"]["trace.wall_s"]["value"],
                 record["untraced_wall_s"]))


def run_all(args):
    """Every workload in a fresh process, then one table."""
    sys.path.insert(0, SRC)
    import workloads
    table, failed, attempted = {}, 0, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("perfbench: workload %s exited with %d"
                  % (name, proc.returncode), file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for metric, m in result["metrics"].items():
            table["%s/%s" % (name, metric)] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": table}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="bench-default, release-mlp-large, "
                             "dp-sweep-large, or all")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, used as the config's master seed")
    parser.add_argument("--seconds", type=int, default=10,
                        help="run operations until this many seconds passed "
                             "(at least one operation)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprint as the reference")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "swagppm", "__init__.py")):
        print("perfbench: no swagppm package under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        limit_blas_threads()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
