"""Pseudo-posterior mechanism core: per-record risks from posterior draws,
risk-to-weight mapping, weighted sensitivity, the 2*Delta privacy bound,
and the Lipschitz-preserving reweighting step."""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import models

STAGE_INITIAL = "initial"


class PpmError(ValueError):
    pass


@dataclass
class RiskWeights:
    record_ids: np.ndarray
    risks: np.ndarray
    normalized: np.ndarray
    alpha: np.ndarray
    c: float
    g: float
    stage: str = STAGE_INITIAL


@dataclass
class SensitivityReport:
    delta: float
    per_record: np.ndarray
    record_ids: np.ndarray
    argmax_draw: int
    argmax_record_id: int
    num_draws: int
    epsilon: float = field(init=False)

    def __post_init__(self):
        self.epsilon = 2.0 * self.delta


def abs_loglik_rows(spec, draws, X, y):
    """|log-likelihood| of every record, one length-n row per draw (a flat
    parameter array), made lazily as the draws are consumed. The rows share
    one buffer, so a row is valid only until the next one is made."""
    if X.shape[0] == 0:
        raise PpmError("empty dataset")
    return (np.abs(ll, out=ll)
            for ll in models.log_likelihood_rows(spec, draws, X, y))


def abs_loglik_matrix(spec, draws, X, y):
    """|log-likelihood| of every record under every draw (a flat parameter
    array), shape (S, n)."""
    rows = [row.copy() for row in abs_loglik_rows(spec, draws, X, y)]
    if not rows:
        raise PpmError("need at least one posterior draw")
    return np.stack(rows, axis=0)


def map_weights(record_ids, risks, c, g):
    """Linear map from min-max normalized risks to weights in [0, 1]."""
    risks = np.asarray(risks, dtype=np.float64)
    record_ids = np.asarray(record_ids)
    if risks.shape[0] < 2:
        raise PpmError("need at least 2 records to normalize risks")
    if c < 0:
        raise PpmError("scale c must be nonnegative")
    spread = risks.max() - risks.min()
    if spread > 0:
        normalized = (risks - risks.min()) / spread
    else:
        normalized = np.zeros_like(risks)
    alpha = np.clip(c * (1.0 - normalized) + g, 0.0, 1.0)
    return RiskWeights(record_ids, risks, normalized, alpha, c, g)


def sensitivity(rows, alpha, record_ids=None):
    """Weighted local sensitivity over the draw grid and its 2*Delta bound:
    Delta = max over draws s and records i of alpha_i |ll_si|. rows is any
    iterable of |log-likelihood| rows, one per draw, such as an (S, n) array
    or abs_loglik_rows; each row is folded in as it arrives, and only the
    running per-record max and the draw that first attains it are kept, so
    ties go to the lowest draw and record index. With alpha all ones,
    per_record is each record's risk, its max |ll| over the draws. A row
    that holds a NaN raises PpmError naming its draw: the maxima would skip
    it."""
    alpha = np.asarray(alpha, dtype=np.float64)
    per_record = None
    for s, row in enumerate(rows):
        if np.shape(row) != alpha.shape:
            raise PpmError("alpha length does not match the record axis")
        if np.isnan(row).any():
            raise PpmError("draw %d scores a NaN |log-likelihood|" % s)
        if per_record is None:
            per_record = row * alpha
            argmax_draw = np.zeros(alpha.shape[0], dtype=np.intp)
            weighted = np.empty_like(per_record)
            greater = np.empty(alpha.shape[0], dtype=bool)
        else:
            np.multiply(row, alpha, out=weighted)
            np.greater(weighted, per_record, out=greater)
            np.copyto(per_record, weighted, where=greater)
            np.copyto(argmax_draw, s, where=greater)
    if per_record is None:
        raise PpmError("need at least one posterior draw")
    if record_ids is None:
        record_ids = np.arange(alpha.shape[0])
    record_ids = np.asarray(record_ids)
    i = int(per_record.argmax())
    return SensitivityReport(
        delta=float(per_record[i]),
        per_record=per_record,
        record_ids=record_ids,
        argmax_draw=int(argmax_draw[i]),
        argmax_record_id=int(record_ids[i]),
        num_draws=s + 1,
    )


def reweight(weights, report, k):
    """Rescale weights so unclipped records share the risk bound k*Delta.

    Records with zero measured risk get weight 1: nothing they contribute
    was observed to move the bound.
    """
    if not (0 < k < 1):
        raise PpmError("k must lie in (0, 1)")
    if report.delta <= 0:
        raise PpmError("reweighting undefined when Delta is zero")
    per = report.per_record
    alpha_w = np.where(
        per > 0,
        np.clip(k * weights.alpha * report.delta / np.where(per > 0, per, 1.0),
                0.0, 1.0),
        1.0)
    return RiskWeights(weights.record_ids, weights.risks, weights.normalized,
                       alpha_w, weights.c, weights.g,
                       stage="reweighted(k=%g)" % k)


_WEIGHTS_COLUMNS = ["record_id", "risk", "normalized_risk", "alpha", "stage"]


def save_weights_csv(path, weights):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_WEIGHTS_COLUMNS)
        for i in range(weights.record_ids.shape[0]):
            w.writerow([int(weights.record_ids[i]),
                        repr(float(weights.risks[i])),
                        repr(float(weights.normalized[i])),
                        repr(float(weights.alpha[i])),
                        weights.stage])


def save_report_json(path, report):
    with open(path, "w") as f:
        json.dump({
            "delta": report.delta,
            "epsilon": report.epsilon,
            "per_record": report.per_record.tolist(),
            "record_ids": [int(i) for i in report.record_ids],
            "argmax_draw": report.argmax_draw,
            "argmax_record_id": report.argmax_record_id,
            "num_draws": report.num_draws,
        }, f, indent=1)
