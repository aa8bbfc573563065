"""The csr module against scipy.sparse, its reference: every operation
calls the kernel scipy's own method calls, so each must give scipy's
arrays, index types and bits."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from swagppm import csr, data

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
    # a boolean mask or a float is no row number
    for rows in ([3], [-4], [[0]], [True, False, True], [0.9, 2.2]):
        with pytest.raises(IndexError):
            csr.take(X, rows)
    assert csr.take(X, []).shape == (0, 3)


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


def test_checked_copies_a_scipy_matrixs_arrays():
    # the source's arrays are views of larger arrays, and an earlier view
    # of each is kept; the Matrix copies what it checked, so no later write
    # to an array, its base or another view of it reaches the Matrix
    bases = (np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
             np.array([0, 1, 2, 3, 4], dtype=np.int32),
             np.array([0, 1, 2, 3, 4, 5], dtype=np.int32))
    earlier = [base[:] for base in bases]
    want = sp.csr_matrix((4, 4))
    want.data, want.indices, want.indptr = (bases[0][:4], bases[1][:4],
                                            bases[2][:5])
    got = csr.checked(want, ValueError)
    assert csr.checked(got, ValueError) is got
    _assert_same(got, sp.csr_matrix(np.diag([1.0, 2.0, 3.0, 4.0])))
    for name in ("data", "indices", "indptr"):
        assert not np.shares_memory(getattr(got, name), getattr(want, name))
        # the Matrix's arrays are read-only; the caller's stay writable
        with pytest.raises(ValueError):
            getattr(got, name)[0] = 0
    with pytest.raises(AttributeError):
        got.data = want.data
    for arrays in (bases, earlier, (want.data, want.indices, want.indptr)):
        for array, value in zip(arrays, (np.nan, 10 ** 9, 5)):
            array[0] = value
    _assert_same(got, sp.csr_matrix(np.diag([1.0, 2.0, 3.0, 4.0])))
    # another sparse format is converted by its own tocsr
    eye = sp.csr_matrix(np.eye(4))
    _assert_same(csr.checked(eye.tocoo(), ValueError), eye)


def test_only_the_module_makes_a_matrix():
    X = csr.checked(np.eye(3), ValueError)
    with pytest.raises(TypeError, match="csr.checked"):
        csr.Matrix(X.data, X.indices, X.indptr, X.shape)
    with pytest.raises(AttributeError):
        X.shape = (3, 4)


@pytest.mark.floor_versions
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
    if message in ("strictly increasing", "finite"):
        # the kernels read unsorted or repeated indices and non-finite
        # values safely, so only a dataset refuses them
        X = csr.checked(matrix, KeyError)
        assert X.data.tobytes() == matrix.data.tobytes()
        assert X.indices.tolist() == matrix.indices.tolist()
        assert X.indptr.tolist() == matrix.indptr.tolist()
        with pytest.raises(data.DataError, match=message):
            data.LabeledDataset(range(2), [0, 0], matrix, 1)
    else:
        with pytest.raises(KeyError, match=message):
            csr.checked(matrix, KeyError)


@st.composite
def _dataset_sources(draw):
    """A scipy CSR from _entries(), its arrays set after scipy built it,
    one value perhaps made NaN or infinite."""
    values, indices, indptr, shape = draw(_entries())
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None and values.size:
        values[draw(st.integers(0, values.size - 1))] = bad
    matrix = sp.csr_matrix(shape)
    matrix.data, matrix.indices, matrix.indptr = values, indices, indptr
    return matrix


@pytest.mark.floor_versions
@settings(max_examples=300, deadline=None)
@given(source=_dataset_sources())
def test_a_dataset_holds_its_sources_entries_or_names_the_rule_they_break(
        source):
    n = source.shape[0]
    rows = [source.indices[a:b] for a, b in zip(source.indptr,
                                                 source.indptr[1:])]
    if not all(np.all(np.diff(r) > 0) for r in rows):
        broken = "strictly increasing"
    elif not np.isfinite(source.data).all():
        broken = "finite"
    else:
        broken = None
    try:
        X = data.LabeledDataset(range(n), [0] * n, source, 1).feature_matrix()
    except data.DataError as e:
        assert broken is not None and broken in str(e)
        return
    assert broken is None
    held = [getattr(X, name).copy() for name in ("data", "indices",
                                                  "indptr")]
    assert held[0].tobytes() == source.data.tobytes()
    assert held[1].tolist() == source.indices.tolist()
    assert held[2].tolist() == source.indptr.tolist()
    for array in (source.data, source.indices, source.indptr):
        array[...] = 1
    for name, want in zip(("data", "indices", "indptr"), held):
        assert getattr(X, name).tobytes() == want.tobytes()


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


# A dataset built from a scipy CSR whose indices view a larger array; the
# write to that array after the build would put a column past the width
# into any matrix that shared it, and forward_batch would read W there.
# Prints whether the probabilities after the write are those from before;
# a crash of the child fails the test instead of the test run.
_WRITE_TO_A_SOURCES_BASE_RUN = """
import numpy as np, scipy.sparse as sp
from swagppm import data, models
big = np.array([0, 1, 2, 3], dtype=np.int32)
ds = data.LabeledDataset([0, 1], [0, 1], sp.csr_matrix(
    (np.ones(2), big[:2], np.array([0, 1, 2], dtype=np.int32)),
    shape=(2, 8)), 2)
spec = models.ModelSpec(models.SOFTMAX_LINEAR, 8, 2)
theta = models.init_params(spec, 0)
before = models.forward_batch(spec, theta, ds.feature_matrix())
big[0] = 10 ** 9
after = models.forward_batch(spec, theta, ds.feature_matrix())
print(before.tobytes() == after.tobytes())
"""


def test_a_write_to_a_sources_base_never_reaches_the_kernels():
    assert _run(_WRITE_TO_A_SOURCES_BASE_RUN) == "True\n"
