"""Stochastic weight averaging with a Gaussian covariance built from
a diagonal second-moment term and a low-rank deviation term."""

import mmap

import numpy as np

from .params import LayoutError, ParameterVector, read_file, write_file


class SwagError(RuntimeError):
    pass


def _columns(p, k):
    """A zeroed (p, k) float64 array in its own anonymous memory map, which
    is returned whole when freed, whatever glibc's mmap threshold has grown
    to: a heap block of that size once left a hole that raised
    bench-default's peak RSS by 4 MiB."""
    buffer = mmap.mmap(-1, max(1, 8 * p * k))
    return np.frombuffer(buffer, np.float64, p * k).reshape(p, k)


# OpenBLAS takes a (rows, k) @ (k,) gemv on the calling thread when rows * k
# is below this; above it, it splits the rows over its threads.
GEMV_THREADED = 460800


def _gemv_parts(rows, k):
    """The row ranges a draw takes its (rows, k) @ (k,) gemv in, whatever
    the thread count: one when rows * k < GEMV_THREADED, else the two
    halves of OpenBLAS's two-thread gemv (the first ceil(rows / 2) rows and
    the rest), each cut into chunks of a multiple of 4 rows below
    GEMV_THREADED / k. OpenBLAS's kernel groups a chunk's rows by fours from
    its start, so each has its rows' bits in the half at one thread."""
    if rows * k < GEMV_THREADED:
        return [(0, rows)]
    half = -(-rows // 2)
    chunk = 4 * ((GEMV_THREADED // k - 1) // 4)
    return [(a, min(a + chunk, end))
            for start, end in ((0, half), (half, rows))
            for a in range(start, end, chunk)]


class SwagMoments:
    """Running moment accumulator over epoch snapshots.

    Tracks the running mean, the running mean of element-wise squares, and
    up to k_max deviation columns theta_t - mean_t, where mean_t is the
    running mean right after absorbing snapshot t. The columns live in the
    first k of a (p, k_max) buffer, oldest first; a full buffer evicts its
    oldest column.
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

    def _values(self, theta):
        """The flat values of a snapshot: a ParameterVector over the layout
        or a float64 array of its size, as trainer.train passes each epoch's
        theta to its sink."""
        if isinstance(theta, ParameterVector):
            if theta.layout != self.layout:
                raise LayoutError("snapshot layout does not match accumulator")
            return theta.values
        if theta.shape != (self.layout.size,):
            raise LayoutError("snapshot of shape %r; the accumulator's layout "
                              "has %d values" % (theta.shape, self.layout.size))
        return theta

    def absorb(self, *thetas):
        """Absorb the snapshots in order, after checking all of them. The
        first absorb allocates the deviation buffer at k_max columns, so an
        epoch at a time costs no more than a round in one call."""
        values = [self._values(theta) for theta in thetas]
        if values and self._dev.shape[1] < self.k_max:
            grown = _columns(self.layout.size, self.k_max)
            grown[:, :self.k] = self._dev[:, :self.k]
            self._dev = grown
        for theta in values:
            t = self.count + 1
            self.mean += (theta - self.mean) / t
            self.sq_mean += (theta ** 2 - self.sq_mean) / t
            if self.k == self.k_max:  # full: evict the oldest column
                self._dev[:, :-1] = self._dev[:, 1:]
            else:
                self.k += 1
            self._dev[:, self.k - 1] = theta - self.mean
            self.count = t
        return self

    @property
    def dev_columns(self):
        """Read-only (k, p) view; iterating it yields the columns in order."""
        cols = self._dev[:, :self.k].T
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
        is dropped. Deterministic per (seed, count), whatever the OpenBLAS
        thread count and with no thread control: a DrawMaker makes the draws
        in one set of its buffers, as it does in each lane's own in
        ppm.posterior_sensitivity, so a draw has the same bits either way.
        The arguments are checked here, before the first draw, and
        sigma_diag is computed once for all draws. Each draw is a read-only
        view of one buffer, valid until the next draw (copy it to keep it);
        a draw that is not finite raises SwagError."""
        if count < 1:
            raise SwagError("need at least one draw")
        return self._draws(count, DrawMaker(self, seed))

    def _draws(self, count, maker):
        z, low_rank, z2, finite = maker.buffers()
        draw = z.view()
        draw.flags.writeable = False
        for s in range(count):
            maker.take(z, z2)
            maker.finish(z, z2, low_rank, finite, s)
            yield draw

    def sample(self, count, seed):
        """count posterior draws as a list of ParameterVectors; see draws."""
        return [ParameterVector(d, self.layout)
                for d in self.draws(count, seed)]


class DrawMaker:
    """Makes the posterior draws of a SwagMoments at one seed (see
    SwagMoments.draws) in two steps, into buffers the caller owns:

    - take(z, z2) takes the next draw's normals from the seed's stream,
      z1 into z and, when k >= 2, z2 into z2. Draws must take them in draw
      order; this is the only step that must.
    - finish(z, z2, low_rank, finite, s) turns them into draw s in z, in
      place, and raises SwagError when it is not finite.

    Neither step allocates: z2 is filled through standard_normal's out, and
    the finite check goes through the bool buffer finite. D z2 is taken in
    the row ranges of _gemv_parts, which depend on p and k alone, each as
    np.matmul(D[a:b], z2, out=low_rank[a:b]). Each range is below
    GEMV_THREADED, OpenBLAS's own threshold, so it runs on the calling
    thread, and a draw has the bits of the whole gemv at two threads, the
    count the stored benchmark references were recorded at, whatever the
    process's count and with no thread control. The moments must have a
    snapshot absorbed and must not change while the maker is used."""

    def __init__(self, moments, seed):
        if moments.count < 1:
            raise SwagError("no snapshots absorbed")
        p, self.k = moments.layout.size, moments.k
        self.rng = np.random.default_rng(seed)
        self.mean = moments.mean
        self.diag_scale = np.sqrt(moments.sigma_diag() / 2.0)
        self.dev = moments._dev[:, :self.k]
        self.parts = _gemv_parts(p, self.k)

    def buffers(self):
        """A draw's buffers (z, low_rank, z2, finite)."""
        p = self.mean.size
        return (np.empty(p), np.empty(p), np.empty(self.k),
                np.empty(p, dtype=bool))

    def take(self, z, z2):
        self.rng.standard_normal(out=z)
        if self.k >= 2:
            self.rng.standard_normal(out=z2)

    def finish(self, z, z2, low_rank, finite, s):
        z *= self.diag_scale
        z += self.mean
        if self.k >= 2:
            for a, b in self.parts:
                np.matmul(self.dev[a:b], z2, out=low_rank[a:b])
            low_rank /= np.sqrt(2.0 * (self.k - 1))
            z += low_rank
        if not np.isfinite(z, out=finite).all():
            raise SwagError("draw %d is not finite" % s)


_MAGIC = b"SWPPMSW1"


def save_moments(path, moments):
    head = {"layout": moments.layout.to_json(), "count": moments.count,
            "k_max": moments.k_max, "k": moments.k}
    write_file(path, _MAGIC, head, moments.mean, moments.sq_mean,
               moments.dev_columns)


def load_moments(path):
    """Read a moments file; a misframed or corrupt file raises SwagError.
    The deviation buffer holds the k columns stored, whatever k_max says."""
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
