"""The csr module against scipy.sparse, its reference: every operation
calls the kernel scipy's own method calls, so each must give scipy's
arrays, index types and bits."""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from swagppm import csr

from conftest import run_package_script

WIDTHS = [1, 3, 8, 2 ** 31, 2 ** 40]  # the last two need int64 indices


def _entries(width=None):
    """(data, indices, indptr, shape): rows of a given or drawn width
    whose entries come in any order, with repeated columns, stored zeros
    (+0.0 and -0.0) and empty rows, over int32 or int64 index arrays."""
    @st.composite
    def draw_entries(draw):
        w = draw(st.sampled_from(WIDTHS)) if width is None else width
        n = draw(st.integers(0, 12))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        lengths = rng.integers(0, 7, n) * (rng.random(n) < 0.7)
        nnz = int(lengths.sum())
        # a few columns, so that rows repeat them
        columns = rng.integers(0, w, 5)[rng.integers(0, 5, nnz)]
        data = np.where(rng.random(nnz) < 0.3,
                        rng.choice([0.0, -0.0, 1.0, 0.1], nnz),
                        rng.normal(scale=10.0, size=nnz))
        index = draw(st.sampled_from([np.int32, np.int64]))
        if w > np.iinfo(np.int32).max:
            index = np.int64
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(index)
        return data, columns.astype(index), indptr, (n, w)
    return draw_entries()


def _scipy_summed(data, indices, indptr, shape):
    matrix = sp.csr_matrix((data, indices, indptr), shape=shape, copy=True)
    matrix.sum_duplicates()
    return matrix


def _with_index(matrix, index):
    """matrix with its index arrays cast to index, as a caller may hold
    them (int64 for a width int32 does not hold); scipy's constructor would
    cast them back to int32."""
    if max(matrix.shape) > np.iinfo(np.int32).max:
        index = np.int64
    matrix.indices = matrix.indices.astype(index)
    matrix.indptr = matrix.indptr.astype(index)
    return matrix


def _assert_same(got, want):
    assert isinstance(got, csr.Matrix)
    assert got.shape == want.shape and got.nnz == want.nnz
    # scipy's index type for a matrix of no rows or no columns whose other
    # dimension int32 does not hold differs between its versions
    edge = 0 in want.shape and max(want.shape) > np.iinfo(np.int32).max
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.tobytes() == b.tobytes() or edge and a.tolist() == b.tolist()
        assert a.dtype == b.dtype or edge and a.dtype == np.int64, name


@pytest.mark.floor_versions
@settings(max_examples=300, deadline=None)
@given(case=_entries())
def test_summed_equals_scipys_sum_duplicates(case):
    data, indices, indptr, shape = case
    before = [a.copy() for a in (data, indices, indptr)]
    _assert_same(csr.summed(data, indices, indptr, shape),
                 _scipy_summed(data, indices, indptr, shape))
    for a, b in zip((data, indices, indptr), before):
        assert a.tobytes() == b.tobytes()  # the arrays given are kept


@pytest.mark.floor_versions
@settings(max_examples=300, deadline=None)
@given(case=_entries(), picks=st.lists(st.integers(-15, 14), max_size=20),
       index=st.sampled_from([np.int32, np.int64]))
def test_take_equals_scipys_row_index(case, picks, index):
    # rows in any order, repeated, negative or none
    want = _with_index(_scipy_summed(*case), index)
    X = csr.checked(want, ValueError)
    n = X.shape[0]
    rows = np.array([r for r in picks if -n <= r < n], dtype=np.intp)
    _assert_same(csr.take(X, rows), want[rows])


def test_take_refuses_a_row_outside_the_matrix():
    X = csr.checked(np.eye(3), ValueError)
    for rows in ([3], [-4], [[0]]):
        with pytest.raises(IndexError):
            csr.take(X, rows)


@pytest.mark.floor_versions
@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.sampled_from(WIDTHS),
       index=st.sampled_from([np.int32, np.int64]))
def test_vstack_equals_scipys_vstack(data, width, index):
    blocks = [_with_index(_scipy_summed(*case), index) for case in
              data.draw(st.lists(_entries(width), max_size=4))]
    want = sp.vstack(blocks or [sp.csr_matrix((0, width))], format="csr")
    _assert_same(csr.vstack([csr.checked(b, ValueError) for b in blocks],
                            width), want)


@pytest.mark.floor_versions
@settings(max_examples=300, deadline=None)
@given(case=_entries(), index=st.sampled_from([np.int32, np.int64]))
def test_row_sq_norms_equal_scipys_multiply_sum(case, index):
    want = _with_index(_scipy_summed(*case), index)
    got = csr.row_sq_norms(csr.checked(want, ValueError))
    assert got.tobytes() == np.asarray(
        want.multiply(want).sum(axis=1)).ravel().tobytes()


@pytest.mark.floor_versions
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 9),
       d=st.integers(0, 9))
def test_checked_dense_equals_scipys_conversion(seed, n, d):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, d)) < 0.5,
                     rng.choice([0.0, -0.0], (n, d)), rng.normal(size=(n, d)))
    _assert_same(csr.checked(dense, ValueError),
                 sp.csr_matrix(dense, dtype=np.float64))


@pytest.mark.parametrize("strict", [True, False])
def test_checked_holds_a_scipy_matrixs_arrays_uncopied_and_read_only(strict):
    want = sp.csr_matrix(np.eye(4))
    got = csr.checked(want, ValueError, strict=strict)
    assert csr.checked(got, ValueError, strict=strict) is got
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.shares_memory(a, b)
        # neither the Matrix nor the scipy matrix it was checked from can
        # be written to, so no later write gets past the checks
        for array in (a, b):
            with pytest.raises(ValueError):
                array[0] = 0
    with pytest.raises(AttributeError):
        got.data = want.data
    # an array the Matrix copies, as to float64, stays the caller's to write
    single = sp.csr_matrix(np.eye(4, dtype=np.float32))
    assert not np.shares_memory(csr.checked(single, ValueError).data,
                                single.data)
    single.data[0] = 2.0
    # another sparse format is converted by its own tocsr
    _assert_same(csr.checked(want.tocoo(), ValueError), want)


def test_only_the_module_makes_a_matrix():
    X = csr.checked(np.eye(3), ValueError)
    with pytest.raises(TypeError, match="csr.checked"):
        csr.Matrix(X.data, X.indices, X.indptr, X.shape)
    with pytest.raises(AttributeError):
        X.strict = False
    # a copy or pickle is a Matrix of the same arrays and rules
    Y = pickle.loads(pickle.dumps(X))
    assert isinstance(Y, csr.Matrix) and Y.strict and Y.shape == X.shape
    _assert_same(Y, sp.csr_matrix(np.eye(3)))
    assert not Y.data.flags.writeable
    # a pickle is outside data, so its arrays are checked again
    make, (data, indices, indptr, shape, strict) = X.__reduce__()
    with pytest.raises(ValueError, match=r"lie in \[0, 3\)"):
        make(data, indices + 3, indptr, shape, strict)
    make, (data, indices, indptr, shape, strict) = csr.checked(
        np.ones((1, 3)), ValueError).__reduce__()
    with pytest.raises(ValueError, match="strictly increasing"):
        make(data, indices[::-1].copy(), indptr, shape, strict)


@pytest.mark.parametrize("arrays, shape, message", [
    (([1.0] * 4, [0, 1, 2, 3], [0, 2, 3]), (2, 8), "index pointer"),
    (([1.0] * 4, [0, 1, 2, 3], [0, 2, 5]), (2, 8), "index pointer"),
    (([1.0] * 4, [0, 1, 2, 3], [1, 2, 4]), (2, 8), "index pointer"),
    (([1.0] * 4, [0, 1, 2, 3], [0, 4]), (2, 8), "rows \\+ 1"),
    (([1.0] * 2, [0, 8], [0, 1, 2]), (2, 8), r"lie in \[0, 8\)"),
    (([1.0] * 2, [-1, 0], [0, 1, 2]), (2, 8), r"lie in \[0, 8\)"),
    (([1.0] * 2, [3, 3], [0, 2, 2]), (2, 8), "strictly increasing"),
    (([1.0] * 2, [3, 1], [0, 2, 2]), (2, 8), "strictly increasing"),
    (([1.0, np.nan], [0, 1], [0, 1, 2]), (2, 8), "finite"),
    (([1.0, -np.inf], [0, 1], [0, 1, 2]), (2, 8), "finite"),
])
def test_checked_refuses_a_matrix_that_breaks_a_rule(arrays, shape,
                                                     message):
    # the arrays are set after scipy built the matrix, so nothing trims or
    # checks them before csr.checked reads them
    matrix = sp.csr_matrix(shape)
    matrix.data, matrix.indices, matrix.indptr = (np.array(a)
                                                  for a in arrays)
    with pytest.raises(KeyError, match=message):
        csr.checked(matrix, KeyError)
    strict_only = message in ("strictly increasing", "finite")
    if strict_only:
        # the kernels read unsorted or repeated indices and non-finite
        # values safely, so a matrix need not keep the strict rules
        loose = csr.checked(matrix, KeyError, strict=False)
        assert not loose.strict
        with pytest.raises(KeyError, match=message):
            csr.checked(loose, KeyError)
    else:
        with pytest.raises(KeyError, match=message):
            csr.checked(matrix, KeyError, strict=False)


def test_checked_marks_a_matrix_strict_once_its_rules_are_checked():
    loose = csr.checked(sp.csr_matrix(np.eye(3)), ValueError, strict=False)
    assert not loose.strict
    strict = csr.checked(loose, ValueError)
    assert strict.strict and strict.data.base is loose.data.base
    assert csr.checked(strict, ValueError) is strict
    # operations keep the rules of what they are made from
    assert csr.take(strict, [2, 0]).strict and not csr.take(loose, [1]).strict
    assert not csr.vstack([strict, loose], 3).strict
    with np.errstate(divide="ignore"):
        assert not csr.divide_rows(strict, np.array([1.0, 0.0, 1.0])).strict


def test_summed_and_vstack_refuse_arrays_that_break_a_matrixs_rules():
    with pytest.raises(ValueError, match=r"lie in \[0, 4\)"):
        csr.summed([1.0], [4], [0, 1], (1, 4))
    with pytest.raises(ValueError, match="index pointer"):
        csr.summed([1.0], [0], [0, 2], (1, 4))
    with pytest.raises(ValueError, match="4 wide"):
        csr.vstack([csr.checked(np.eye(3), ValueError)], 4)


def _run(script):
    run = run_package_script(script)
    assert run.returncode == 0, run.stderr
    return run.stdout


# Imports the CLI and runs a tiny benchmark through it, then prints the
# scipy modules loaded: at most the kernels' extension module, which
# CPython records under its name.
_NO_SCIPY_SPARSE_RUN = """
import json, os, sys, tempfile
import swagppm.cli
config = {"seed": 7, "delta_sweep": [0.1],
          "data": {"synthetic": {"num_classes": 4, "total_records": 200,
                                 "vocab_size": 100, "feature_dim": 64}},
          "phases": {"finetune_epochs": 1, "swag_epochs": 2, "draws": 5,
                     "batch_size": 32},
          "dp_sgd": {"epochs": 1, "batch_size": 32},
          "nonprivate": {"epochs": 1}}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "config.json")
    with open(path, "w") as f:
        json.dump(config, f)
    code = swagppm.cli.main(["--config", path, "--out",
                             os.path.join(tmp, "out"), "benchmark"])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_and_a_benchmark_never_import_scipy_sparse():
    assert _run(_NO_SCIPY_SPARSE_RUN).splitlines()[-1] in (
        "0 []", "0 ['scipy.sparse._sparsetools']")
