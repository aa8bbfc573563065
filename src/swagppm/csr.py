"""The feature format: a read-only CSR matrix of float64 values that owns
its arrays, and the operations swagppm runs on it.

Each operation calls the compiled kernel scipy's own method calls, in the
same steps, so it gives the bits and index types scipy gives. The kernels
are scipy's `scipy/sparse/_sparsetools` extension, loaded from its file
alone (`sparsetools`): importing the `scipy.sparse` package would also load
numpy's f2py and testing modules and unittest. On a 2-vCPU x86-64 host with
numpy 2.4.6 and scipy 1.17.1, a process that imports numpy and then
scipy.sparse peaks at 48.7 MiB, 0.18 s later, against 26.9 MiB when it loads
the extension alone, which takes under a millisecond.

A `Matrix` keeps its rules by construction: only this module makes one,
from outside data (a scipy sparse matrix or array, or a dense array)
through `checked` once, which copies what it checked, and from a Matrix
through an operation that keeps them. No caller shares its arrays.
"""

import importlib.machinery
import importlib.util
import os
import numpy as np


def _load_kernels():
    """scipy's `_sparsetools` extension, found without importing scipy and
    loaded from its file without the scipy.sparse package (CPython itself
    records an extension module under its name in sys.modules, where a
    later import of scipy.sparse finds it)."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and scipy.submodule_search_locations and (
        importlib.machinery.PathFinder.find_spec(
            "scipy.sparse._sparsetools",
            [os.path.join(p, "sparse")
             for p in scipy.submodule_search_locations]))
    if not spec:
        raise ImportError("swagppm runs scipy's compiled sparse kernels, "
                          "and found no scipy/sparse/_sparsetools extension "
                          "file")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sparsetools = _load_kernels()

_INT32_MAX = np.iinfo(np.int32).max


def _index_type(shape, nnz):
    """The index type of a matrix of this shape and nnz: int32 when nnz and
    both dimensions fit, else int64, so that every kernel takes them as
    scalars. scipy's CSR constructor gives the same (get_index_dtype with
    check_contents), except that scipy 1.17 gives int32 to a matrix with no
    rows or no columns whose other dimension int32 does not hold."""
    if max(nnz, *shape) <= _INT32_MAX:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class Matrix:
    """A CSR matrix: row i holds data[indptr[i]:indptr[i + 1]] at the
    columns indices[indptr[i]:indptr[i + 1]]. It owns its arrays, which
    are read-only: indptr and indices of one index type (_index_type), data
    float64. The pointer starts at 0, never steps down and ends at nnz, and
    every column lies in [0, width), so no kernel reads past the arrays or
    past an operand of the matrix's width. Each row's indices may come in
    any order, repeats allowed, and a value may be NaN or infinite: the
    kernels read them safely.

    Only this module makes one: from outside data through `checked`, and
    from a Matrix through the operations below. scipy converts it with
    scipy.sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape).
    """
    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, *args, **kwargs):
        raise TypeError("a csr.Matrix is made by csr.checked")

    def __setattr__(self, name, value):
        raise AttributeError("a csr.Matrix is read-only")

    def __repr__(self):
        return "csr.Matrix(shape=%r, nnz=%d)" % (self.shape, self.nnz)

    @property
    def nnz(self):
        return self.indices.size


def _matrix(data, indices, indptr, shape):
    """The Matrix of arrays that keep its rules and that no caller can
    write to (new arrays, or a Matrix's), each made read-only."""
    X = object.__new__(Matrix)
    for name, array in (("data", data), ("indices", indices),
                        ("indptr", indptr)):
        array.flags.writeable = False
        object.__setattr__(X, name, array)
    object.__setattr__(X, "shape", (int(shape[0]), int(shape[1])))
    return X


def checked(x, error):
    """x as a Matrix, x itself if it is one. A scipy CSR matrix or array
    gives copies of its own arrays; another sparse format gives its
    .tocsr()'s, and anything else the nonzeros of a dense array of at most
    2 dimensions, in row-major order.

    Raises error unless the index pointer holds rows + 1 entries, starts at
    0, never steps down and ends at the length of indices and data, and
    every column index lies in [0, width). These are checked on the arrays
    given, before anything casts or trims them; the copies are made after,
    so no later write to x, to an array it views or to one that views it
    reaches the Matrix."""
    if isinstance(x, Matrix):
        return x
    if getattr(x, "format", "csr") != "csr":
        x = x.tocsr()
    if getattr(x, "format", None) != "csr":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2:
            raise error("a feature matrix has at most 2 dimensions, not %d"
                        % x.ndim)
        x = np.atleast_2d(x)
        rows, columns = np.nonzero(x)
        indptr = np.zeros(x.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=x.shape[0]), out=indptr[1:])
        data, indices = x[rows, columns], columns
    else:
        data, indices, indptr = (np.asarray(a)
                                 for a in (x.data, x.indices, x.indptr))
        _check_layout(data, indices, indptr, x.shape, error)
    kind = _index_type(x.shape, indices.size)
    return _matrix(np.array(data, dtype=np.float64), indices.astype(kind),
                   indptr.astype(kind), x.shape)


def _check_layout(data, indices, indptr, shape, error):
    """Raise error unless the pointer and columns keep a Matrix's rules:
    indptr holds rows + 1 integers, starts at 0, never steps down and ends
    at the length of indices and of data, and every column lies in [0,
    width)."""
    if not (data.ndim == indices.ndim == indptr.ndim == 1
            and data.size == indices.size and indptr.size == shape[0] + 1
            and indices.dtype.kind in "iu" and indptr.dtype.kind in "iu"):
        raise error("a CSR feature matrix needs integer indices as long as "
                    "its data and an integer index pointer of rows + 1 "
                    "entries")
    if not (indptr[0] == 0 and indptr[-1] == indices.size
            and not np.any(indptr[1:] < indptr[:-1])):
        raise error("the feature index pointer must start at 0, never step "
                    "down and end at nnz")
    if indices.size and not (0 <= indices.min() and indices.max() < shape[1]):
        raise error("feature indices must lie in [0, %d)" % shape[1])


def summed(data, indices, indptr, shape):
    """The Matrix of rows given by a pointer over entries in any order,
    repeats allowed: copies of the arrays, each row's indices sorted unless
    they are already (csr_sort_indices) and the values at a repeated index
    summed in that order (csr_sum_duplicates), stored zeros kept, as
    scipy's CSR constructor and sum_duplicates build it. The arrays given
    are not changed; a pointer or column that breaks a Matrix's rules
    raises ValueError."""
    kind = _index_type(shape, len(indices))
    indices = np.array(indices, dtype=kind)
    indptr = np.array(indptr, dtype=kind)
    data = np.array(data, dtype=np.float64)
    _check_layout(data, indices, indptr, shape, ValueError)
    n = shape[0]
    if not sparsetools.csr_has_canonical_format(n, indptr, indices):
        if not sparsetools.csr_has_sorted_indices(n, indptr, indices):
            sparsetools.csr_sort_indices(n, indptr, indices, data)
        sparsetools.csr_sum_duplicates(n, shape[1], indptr, indices, data)
        nnz = indptr[-1]
        indices, data = indices[:nnz], data[:nnz]
    return _matrix(data, indices, indptr, shape)


def divide_rows(X, divisors):
    """X with each row's values divided by that row's entry of divisors,
    elementwise."""
    data = X.data / np.repeat(divisors, np.diff(X.indptr))
    return _matrix(data, X.indices, X.indptr, X.shape)


def take(X, rows):
    """Rows `rows` of X in that order, repeats allowed, as scipy's X[rows]
    gathers them (_major_index_fancy's csr_row_index); a negative row
    counts from the end. Rows that are not integers (a boolean mask among
    them), or one outside X, raise IndexError."""
    n, width = X.shape
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise IndexError("rows must be a 1-D array")
    if rows.size and rows.dtype.kind not in "iu":
        raise IndexError("rows must be integers, not %s" % rows.dtype)
    if rows.size and not (-n <= rows.min() and rows.max() < n):
        raise IndexError("a row index lies outside %d rows" % n)
    rows = np.where(rows < 0, rows + n, rows).astype(X.indptr.dtype)
    m = rows.size
    counts = X.indptr[rows + 1] - X.indptr[rows]
    indptr = np.zeros(m + 1, dtype=X.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=X.indptr.dtype)
    data = np.empty(nnz)
    if m:
        sparsetools.csr_row_index(m, rows, X.indptr, X.indices, X.data,
                                  indices, data)
    kind = _index_type((m, width), nnz)
    return _matrix(data, indices.astype(kind, copy=False),
                   indptr.astype(kind, copy=False), (m, width))


def vstack(blocks, width):
    """The rows of the Matrices blocks, each of the given width, one block
    after another, as scipy's CSR vstack stacks them (no block gives no
    rows); a block of another width raises ValueError."""
    if any(b.shape[1] != width for b in blocks):
        raise ValueError("every stacked block must be %d wide" % width)
    n = sum(b.shape[0] for b in blocks)
    data = np.concatenate([b.data for b in blocks] or [np.empty(0)])
    kind = _index_type((n, width), data.size)
    indices = np.empty(data.size, dtype=kind)
    indptr = np.empty(n + 1, dtype=kind)
    row = nnz = 0
    for b in blocks:
        indices[nnz:nnz + b.nnz] = b.indices
        indptr[row:row + b.shape[0]] = b.indptr[:-1]
        indptr[row:row + b.shape[0]] += nnz
        row += b.shape[0]
        nnz += b.nnz
    indptr[-1] = nnz
    return _matrix(data, indices, indptr, (n, width))


def row_sq_norms(X):
    """Each row's sum of squared values, as scipy's
    X.multiply(X).sum(axis=1) takes it: csr_elmul_csr keeps each product
    that is not 0, then np.add.reduceat sums each non-empty row's products
    (_minor_reduce)."""
    n, width = X.shape
    size = 2 * X.nnz
    kind = X.indptr.dtype if size <= _INT32_MAX else np.dtype(np.int64)
    Xp = X.indptr.astype(kind, copy=False)
    Xj = X.indices.astype(kind, copy=False)
    indptr = np.empty(n + 1, dtype=kind)
    indices = np.empty(size, dtype=kind)
    data = np.empty(size)
    sparsetools.csr_elmul_csr(n, width, Xp, Xj, X.data, Xp, Xj, X.data,
                              indptr, indices, data)
    out = np.zeros(n)
    rows = np.flatnonzero(np.diff(indptr))
    out[rows] = np.add.reduceat(data[:indptr[-1]], indptr[rows])
    return out
