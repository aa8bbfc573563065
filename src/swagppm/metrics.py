"""Per-class F1, macro/weighted aggregates, and class-size quartile analysis."""

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    pass


@dataclass
class ConfusionTally:
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    support: np.ndarray

    @property
    def num_classes(self):
        return self.tp.shape[0]


def tally_from_predictions(y_true, y_pred, num_classes):
    """Per-class true positives, false positives, false negatives and
    support; a label or prediction outside [0, num_classes) raises
    MetricsError."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise MetricsError("%d labels but %d predictions"
                           % (y_true.size, y_pred.size))
    for name, v in (("label", y_true), ("prediction", y_pred)):
        if v.size and (v.min() < 0 or v.max() >= num_classes):
            raise MetricsError("a %s lies outside [0, %d)"
                               % (name, num_classes))
    hit = y_true == y_pred

    def count(v):
        return np.bincount(v, minlength=num_classes)

    return ConfusionTally(count(y_true[hit]), count(y_pred[~hit]),
                          count(y_true[~hit]), count(y_true))


def f1_per_class(tally):
    """F1 = 2PR/(P+R) per class; degenerate classes (P+R = 0) score 0."""
    tp = tally.tp.astype(np.float64)
    denom = 2 * tp + tally.fp + tally.fn
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1), 0.0)
    return f1


def macro_f1(tally, class_set=None):
    f1 = f1_per_class(tally)
    if class_set is not None:
        f1 = f1[np.asarray(class_set)]
    return float(f1.mean())


def weighted_f1(tally, class_set=None):
    f1 = f1_per_class(tally)
    support = tally.support.astype(np.float64)
    if class_set is not None:
        idx = np.asarray(class_set)
        f1, support = f1[idx], support[idx]
    total = support.sum()
    if total <= 0:
        raise MetricsError("zero total support")
    return float((support / total) @ f1)


def quartile_class_sets(class_sizes):
    """Largest and smallest 25% of classes by size; ties broken by label order."""
    sizes = np.asarray(class_sizes)
    m = sizes.shape[0]
    if m < 4:
        raise MetricsError("quartile analysis needs at least 4 classes")
    k = max(1, m // 4)
    order = np.lexsort((np.arange(m), -sizes))  # size desc, label asc
    return order[:k], order[-k:][::-1]


def quartile_report(tally, class_sizes):
    """Macro and weighted F1 restricted to the top and bottom size quartiles."""
    top, bottom = quartile_class_sets(class_sizes)
    return {
        "top_classes": top.tolist(),
        "bottom_classes": bottom.tolist(),
        "top": {"weighted_f1": weighted_f1(tally, top),
                "macro_f1": macro_f1(tally, top)},
        "bottom": {"weighted_f1": weighted_f1(tally, bottom),
                   "macro_f1": macro_f1(tally, bottom)},
    }
