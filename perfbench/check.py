"""Output check for one benchmark operation.

An operation's outcome carries a result fingerprint (per method: weighted and
macro F1, and where they exist epsilon, Delta and the sha256 of the released
parameters; per DP-SGD delta: sigma, realized epsilon and target), pairs of
values that must be equal (such as Delta recomputed from the written score
matrix, or the checkpoint on disk against the parameters in memory), and the
errors the operation reported. The check lists every problem it finds; an
operation with any problem counts as failed.
"""

import hashlib
import math

import numpy as np


def theta_sha256(values):
    """sha256 of a parameter vector as little-endian float64 bytes, the
    layout swagppm checkpoints use."""
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _f1_ok(value):
    return isinstance(value, float) and not math.isnan(value) \
        and 0.0 <= value <= 1.0


def invariant_problems(fingerprint):
    problems = []
    for name, m in sorted(fingerprint.get("methods", {}).items()):
        for key in ("weighted_f1", "macro_f1"):
            if not _f1_ok(m[key]):
                problems.append("%s: %s %r outside [0, 1]" % (name, key, m[key]))
        if "delta" in m and m["epsilon"] != 2.0 * m["delta"]:
            problems.append("%s: epsilon %r != 2 * Delta %r"
                            % (name, m["epsilon"], m["delta"]))
    for delta, d in sorted(fingerprint.get("dp_sgd", {}).items()):
        if not d["epsilon"] <= d["target_epsilon"]:
            problems.append("dp-sgd delta=%s: realized epsilon %r exceeds "
                            "target %r" % (delta, d["epsilon"],
                                           d["target_epsilon"]))
        for key in ("weighted_f1", "macro_f1"):
            if not _f1_ok(d[key]):
                problems.append("dp-sgd delta=%s: %s %r outside [0, 1]"
                                % (delta, key, d[key]))
    return problems


def differences(got, want, path=""):
    """Every leaf where two fingerprints differ, as 'path: got != want'."""
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in sorted(set(got) | set(want)):
            sub = "%s/%s" % (path, key) if path else str(key)
            if key not in got or key not in want:
                out.append("%s: %s only in %s" % (
                    sub, "present" if key in got else "missing",
                    "result" if key in got else "reference"))
            else:
                out.extend(differences(got[key], want[key], sub))
        return out
    if got != want:
        return ["%s: %r != reference %r" % (path, got, want)]
    return []


def problems(outcome, reference=None):
    """All problems with one operation's outcome.

    outcome: {"fingerprint": dict, "equal": [[label, a, b], ...],
    "errors": [str, ...]}. reference: the stored fingerprint for this
    workload and seed, or None when none is stored.
    """
    found = list(outcome.get("errors", []))
    for label, a, b in outcome.get("equal", []):
        if a != b:
            found.append("%s: %r != %r" % (label, a, b))
    found.extend(invariant_problems(outcome["fingerprint"]))
    if reference is not None:
        found.extend("fingerprint " + d for d in
                     differences(outcome["fingerprint"], reference))
    return found


def counter_flags(per_op, counts, reference=None):
    """Count metrics that did not repeat exactly: across the operations of
    one run, and the run's counts against those stored for this workload
    and seed."""
    flags = []
    for i, op in enumerate(per_op[1:], start=2):
        flags.extend("operation %d vs 1: %s" % (i, d)
                     for d in differences(op, per_op[0]))
    if reference is not None:
        flags.extend("stored counts: " + d
                     for d in differences(counts, reference))
    return flags
