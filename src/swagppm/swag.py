"""Stochastic weight averaging with a Gaussian covariance built from
a diagonal second-moment term and a low-rank deviation term."""

import mmap

import numpy as np

from .params import LayoutError, ParameterVector, read_file, write_file


class SwagError(RuntimeError):
    pass


def _columns(p, k):
    """A zeroed (p, k) float64 array in its own anonymous memory map, which
    is returned whole when freed: a heap block grown after a round's
    snapshots left a hole that raised bench-default's peak RSS by 4 MiB."""
    buffer = mmap.mmap(-1, max(1, 8 * p * k))
    return np.frombuffer(buffer, np.float64, p * k).reshape(p, k)


class SwagMoments:
    """Running moment accumulator over epoch snapshots.

    Tracks the running mean, the running mean of element-wise squares, and
    up to k_max deviation columns theta_t - mean_t, where mean_t is the
    running mean right after absorbing snapshot t. The columns live in one
    (p, k <= k_max) array, oldest first; a full array evicts its oldest column.
    """

    def __init__(self, layout, k_max=20):
        if k_max < 1:
            raise SwagError("k_max must be >= 1")
        self.layout = layout
        self.k_max = int(k_max)
        self.count = 0
        self.k = 0
        self.mean = np.zeros(layout.size)
        self.sq_mean = np.zeros(layout.size)
        self._dev = np.empty((layout.size, 0))

    def absorb(self, *thetas):
        """Absorb the snapshots in order; the deviation buffer grows once per
        call, by the columns they add, up to k_max."""
        if any(theta.layout != self.layout for theta in thetas):
            raise LayoutError("snapshot layout does not match accumulator")
        width = min(self.k_max, self.k + len(thetas))
        if width > self.k:
            grown = _columns(self.layout.size, width)
            grown[:, :self.k] = self._dev
            self._dev = grown
        for theta in thetas:
            t = self.count + 1
            self.mean += (theta.values - self.mean) / t
            self.sq_mean += (theta.values ** 2 - self.sq_mean) / t
            if self.k == width:  # full at k_max: evict the oldest column
                self._dev[:, :-1] = self._dev[:, 1:]
            else:
                self.k += 1
            self._dev[:, self.k - 1] = theta.values - self.mean
            self.count = t
        return self

    @property
    def dev_columns(self):
        """Read-only (k, p) view; iterating it yields the columns in order."""
        cols = self._dev.T
        cols.flags.writeable = False
        return cols

    @property
    def clamped_entries(self):
        """Number of negative variance estimates that sigma_diag clamps."""
        return int(np.count_nonzero(self.sq_mean - self.mean ** 2 < 0))

    def sigma_diag(self):
        """Element-wise variance estimate, clamped at zero."""
        return np.maximum(self.sq_mean - self.mean ** 2, 0.0)

    def draws(self, count, seed):
        """Lazy iterator over count posterior draws, each
        mean + sqrt(sigma_diag/2) * z1 + D z2 / sqrt(2 (k-1)) with z1 ~ N(0,
        I_p) and, when k >= 2, z2 ~ N(0, I_k); with k < 2 the low-rank term
        is dropped. Deterministic per (seed, count). The arguments are
        checked here, before the first draw, and sigma_diag is computed once
        for all draws. Each draw is a read-only view of one buffer, valid
        until the next draw (copy it to keep it); a draw that is not finite
        raises SwagError."""
        if count < 1:
            raise SwagError("need at least one draw")
        if self.count < 1:
            raise SwagError("no snapshots absorbed")
        return self._draws(count, np.random.default_rng(seed),
                           np.sqrt(self.sigma_diag() / 2.0))

    def _draws(self, count, rng, diag_scale):
        dev = self._dev
        z, low_rank = np.empty(self.layout.size), np.empty(self.layout.size)
        draw = z.view()
        draw.flags.writeable = False
        for s in range(count):
            rng.standard_normal(out=z)
            z *= diag_scale
            z += self.mean
            if self.k >= 2:
                np.matmul(dev, rng.standard_normal(self.k), out=low_rank)
                low_rank /= np.sqrt(2.0 * (self.k - 1))
                z += low_rank
            if not np.isfinite(z).all():
                raise SwagError("draw %d is not finite" % s)
            yield draw

    def sample(self, count, seed):
        """count posterior draws as a list of ParameterVectors; see draws."""
        return [ParameterVector(d, self.layout)
                for d in self.draws(count, seed)]


_MAGIC = b"SWPPMSW1"


def save_moments(path, moments):
    head = {"layout": moments.layout.to_json(), "count": moments.count,
            "k_max": moments.k_max, "k": moments.k}
    write_file(path, _MAGIC, head, moments.mean, moments.sq_mean,
               moments.dev_columns)


def load_moments(path):
    """Read a moments file; a misframed or corrupt file raises SwagError."""
    head, layout, values = read_file(path, _MAGIC, SwagError)
    p = layout.size
    count, k, k_max = (head.get(key) for key in ("count", "k", "k_max"))
    if (any(type(v) is not int for v in (count, k, k_max))
            or not 0 <= k <= k_max or count < 0):
        raise SwagError("bad count %r, k %r or k_max %r in %s"
                        % (count, k, k_max, path))
    if values.size != (2 + k) * p:
        raise SwagError("%s holds %d values, its header implies %d"
                        % (path, values.size, (2 + k) * p))
    moments = SwagMoments(layout, k_max=k_max)
    moments.count = count
    moments.k = k
    moments.mean = values[:p].copy()
    moments.sq_mean = values[p:2 * p].copy()
    moments._dev = np.ascontiguousarray(
        values[2 * p:].reshape((p, k), order="F"))
    return moments
