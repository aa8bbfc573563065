"""Pseudo-posterior mechanism core: per-record risks from posterior draws,
risk-to-weight mapping, the weighted sensitivity of a round's draws and its
2*Delta privacy bound, and the Lipschitz-preserving reweighting step."""

import contextlib
import contextvars
import csv
import functools
import itertools
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas, models, swag

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

    @property
    def epsilon(self):  # the privacy bound
        return 2.0 * self.delta


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
    """Linear map from min-max normalized risks to weights in [0, 1];
    PpmError unless every risk, c and g is finite."""
    risks = np.asarray(risks, dtype=np.float64)
    record_ids = np.asarray(record_ids)
    if risks.shape[0] < 2:
        raise PpmError("need at least 2 records to normalize risks")
    if not (np.isfinite(risks).all() and np.isfinite([c, g]).all()):
        raise PpmError("risks, c and g must be finite")
    if c < 0:
        raise PpmError("scale c must be nonnegative")
    spread = risks.max() - risks.min()
    if spread > 0:
        normalized = (risks - risks.min()) / spread
    else:
        normalized = np.zeros_like(risks)
    alpha = np.clip(c * (1.0 - normalized) + g, 0.0, 1.0)
    return RiskWeights(record_ids, risks, normalized, alpha, c, g)


class Fold:
    """For each record i the running max of alpha_i |ll_si|, from -inf,
    over the draws s folded in so far, and the lowest draw that attains it.
    A max is exact in any order, so folds of disjoint sets of draws merge
    into the fold of all of them. A NaN alpha_i |ll_si| is never a max."""

    def __init__(self, alpha):
        self.alpha = alpha = np.asarray(alpha, dtype=np.float64)
        self.per_record = np.full(alpha.shape, -np.inf)
        self.argmax_draw = np.zeros(alpha.shape, dtype=np.intp)
        self.num_draws = 0
        self._weighted = np.empty(alpha.shape)
        self._greater = np.empty(alpha.shape, dtype=bool)

    def add(self, s, row):
        """Fold in draw s's |log-likelihood| row, s above every draw folded
        in before, so a tie keeps the earlier draw. A row that holds a NaN
        raises PpmError naming its draw: the maxima would skip it."""
        if np.shape(row) != self.alpha.shape:
            raise PpmError("alpha length does not match the record axis")
        if np.isnan(row).any():
            raise PpmError("draw %d scores a NaN |log-likelihood|" % s)
        np.multiply(row, self.alpha, out=self._weighted)
        np.greater(self._weighted, self.per_record, out=self._greater)
        np.copyto(self.per_record, self._weighted, where=self._greater)
        np.copyto(self.argmax_draw, s, where=self._greater)
        self.num_draws += 1

    def merge(self, other):
        """Fold in another fold's draws, none of them this fold's; of two
        equal maxima the lower draw's is kept. Returns this fold."""
        take = (other.per_record > self.per_record) | (
            (other.per_record == self.per_record)
            & (other.argmax_draw < self.argmax_draw))
        np.copyto(self.per_record, other.per_record, where=take)
        np.copyto(self.argmax_draw, other.argmax_draw, where=take)
        self.num_draws += other.num_draws
        return self

    def report(self, record_ids=None):
        """The SensitivityReport of the draws folded in."""
        if not self.num_draws:
            raise PpmError("need at least one posterior draw")
        record_ids = np.asarray(np.arange(self.alpha.shape[0])
                                if record_ids is None else record_ids)
        i = int(self.per_record.argmax())
        return SensitivityReport(
            delta=float(self.per_record[i]),
            per_record=self.per_record,
            record_ids=record_ids,
            argmax_draw=int(self.argmax_draw[i]),
            argmax_record_id=int(record_ids[i]),
            num_draws=self.num_draws,
        )


def sensitivity(rows, alpha, record_ids=None):
    """Weighted local sensitivity over the draw grid and its 2*Delta bound:
    Delta = max over draws s and records i of alpha_i |ll_si|. rows is any
    iterable of |log-likelihood| rows, one per draw, such as an (S, n) array
    or abs_loglik_rows; each row is folded into one Fold as it arrives, so
    ties go to the lowest draw and record index. With alpha all ones,
    per_record is each record's risk, its max |ll| over the draws. A row
    that holds a NaN raises PpmError naming its draw."""
    fold = Fold(alpha)
    for s, row in enumerate(rows):
        fold.add(s, row)
    return fold.report(record_ids)


def _lane(maker, lock, numbers, count, sink, failures, lane):
    """Make, score and fold draws until count are taken or a lane failed:
    the next draw's number and normals under the stream's lock, then the
    draw's arithmetic, its |ll| row, the row's fold into the lane's Fold and,
    with a sink (path, header length), the row's write at header + s 8n
    through the lane's own unbuffered handle. The lane opens that handle
    once and closes it as it ends, so no other thread closes a handle while
    the lane can still write through it. An exception goes into failures
    with its draw, or count when it came before the lane took one."""
    z, low_rank, z2, finite, scorer, fold = lane
    s = count
    try:
        with (open(sink[0], "r+b", buffering=0) if sink
              else contextlib.nullcontext()) as out:
            while True:
                s = count
                with lock:
                    if failures:
                        return
                    s = next(numbers)
                    if s >= count:
                        return
                    maker.take(z, z2)
                maker.finish(z, z2, low_rank, finite, s)
                row = next(scorer)
                fold.add(s, row)
                if out is not None:
                    _write_at(out, sink[1] + s * row.nbytes, row)
    except BaseException as e:  # noqa: BLE001 - the fold re-raises it
        failures.append((s, e))


def _write_at(out, offset, row):
    """Write row's bytes into the unbuffered file out from offset on; a
    short write is continued, a failed one raises its OSError."""
    out.seek(offset)
    view = memoryview(row).cast("B")
    while view:
        view = view[out.write(view):]


def posterior_sensitivity(spec, moments, seed, count, X, y, alpha, ids,
                          abs_ll_path=None):
    """The SensitivityReport of count draws of the moments at seed, each
    made, scored and folded as it is made; no draw outlives its row. Any
    thread count t and lane count give the same bits: swag.DrawMaker fixes
    a draw's, and a max is exact in any order, so only the normals must
    come off the stream in draw order. The fold holds the package's one
    blas.one_thread window, so that its lanes' MLP H @ W2 products do not
    each wake OpenBLAS's pool. One rule serves both families: on 2 vCPUs at
    2 threads, 500 draws of an MLP at the release-mlp-large size folded in a
    median 2.25 s with the window and 5.57 s without, and of the default
    softmax-linear model, whose scorer calls only scipy's sparse kernels, in
    0.564 s and 0.561 s, with the same bits either way. The fold runs on t
    lanes (_lane), whose buffers, scorers and Folds are made here, once.
    One lane runs on this thread; more run on a t-worker pool, each in a
    copy of this thread's context, so numpy's errstate holds there too.
    The lowest failed draw's exception is raised, once every draw below it
    is finished. With a path, each row is also written into a (count, n)
    .npy file with np.save's bytes: this thread creates it and writes the
    header, and each lane writes its rows in place by offset (_lane), not
    through a memory map, whose written pages would count as this
    process's resident memory, growing with S n. A failed write fails the
    fold like a failed draw, and any failure or interrupt removes the
    file."""
    maker = swag.DrawMaker(moments, seed)
    lanes = []
    for _ in range(blas.threads()):
        buffers = maker.buffers()  # (z, low_rank, z2, finite)
        scorer = abs_loglik_rows(spec, itertools.repeat(buffers[0]), X, y)
        lanes.append(buffers + (scorer, Fold(alpha)))
    failures = []
    created = open(abs_ll_path, "wb") if abs_ll_path else None
    try:
        sink = None
        if created is not None:
            with created:
                np.lib.format.write_array_header_1_0(created, {
                    "descr": np.lib.format.dtype_to_descr(
                        np.dtype(np.float64)),
                    "fortran_order": False, "shape": (count, len(ids))})
                sink = abs_ll_path, created.tell()
        run = functools.partial(_lane, maker, threading.Lock(),
                                itertools.count(), count, sink, failures)
        with blas.one_thread():
            if len(lanes) == 1:
                run(lanes[0])
            else:
                with ThreadPoolExecutor(len(lanes)) as pool:
                    futures = [pool.submit(contextvars.copy_context().run,
                                           run, lane) for lane in lanes]
                for future in futures:
                    future.result()
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        report = functools.reduce(Fold.merge,
                                  [lane[-1] for lane in lanes]).report(ids)
    except BaseException:
        failures.append((count, None))  # a lane still running stops
        if created is not None:
            os.remove(abs_ll_path)
        raise
    return report


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
