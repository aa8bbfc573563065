import math
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from swagppm import models
from swagppm.params import (Layout, LayoutError, ParameterVector,
                            load_checkpoint, save_checkpoint, write_file)

from conftest import (BAD_DIMS, finite_difference_gradient, frozen_frame,
                      random_instance, traced_peak)


def linear_theta(input_dim, num_classes, W=None, b=None):
    spec = models.ModelSpec(models.SOFTMAX_LINEAR, input_dim, num_classes)
    layout = spec.layout()
    values = np.zeros(layout.size)
    if W is not None:
        layout.view(values, "W")[:] = W
    if b is not None:
        layout.view(values, "b")[:] = b
    return spec, ParameterVector(values, layout)


def test_forward_zero_theta_uniform():
    spec, theta = linear_theta(3, 4)
    probs = models.forward_batch(spec, theta, np.array([[0.3, -1.0, 2.0]]))[0]
    np.testing.assert_allclose(probs, 0.25)


def test_forward_hand_logits():
    # logits (0, ln 3) -> probabilities (0.25, 0.75)
    spec, theta = linear_theta(1, 2, b=np.array([0.0, math.log(3.0)]))
    probs = models.forward_batch(spec, theta, np.zeros((1, 1)))[0]
    np.testing.assert_allclose(probs, [0.25, 0.75], rtol=1e-12)


def test_forward_sums_to_one(rng):
    for _ in range(100):
        spec, theta, X, y = random_instance(rng, models.SOFTMAX_LINEAR)
        P = models.forward_batch(spec, theta, X)
        assert np.all(P > 0)
        assert np.max(np.abs(P.sum(axis=1) - 1)) < 1e-12


def test_forward_dimension_mismatch():
    spec, theta = linear_theta(3, 4)
    with pytest.raises(models.ModelError, match="W"):
        models.forward_batch(spec, theta, np.zeros((1, 5)))


def test_log_likelihood_uniform():
    spec, theta = linear_theta(3, 4)
    ll = models.log_likelihood_batch(spec, theta, np.zeros((1, 3)), [2])[0]
    assert ll == pytest.approx(math.log(0.25), rel=1e-12)


def test_log_likelihood_hand_value():
    spec, theta = linear_theta(1, 2, b=np.array([0.0, math.log(3.0)]))
    ll = models.log_likelihood_batch(spec, theta, np.zeros((1, 1)), [1])[0]
    assert ll == pytest.approx(math.log(0.75), rel=1e-12)


def test_log_likelihood_confident_limit():
    spec, theta = linear_theta(1, 2, b=np.array([0.0, 60.0]))
    ll = models.log_likelihood_batch(spec, theta, np.zeros((1, 1)), [1])[0]
    assert -1e-20 < ll <= 0


def test_log_likelihood_matches_forward(rng):
    for family in (models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN):
        spec, theta, X, y = random_instance(rng, family)
        P = models.forward_batch(spec, theta, X)
        ll = models.log_likelihood_batch(spec, theta, X, y)
        np.testing.assert_array_equal(
            ll, np.log(P[np.arange(len(y)), y]))


@pytest.mark.parametrize("family",
                         [models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_gradient_finite_differences(rng, family, weight_decay):
    for _ in range(5):
        spec, theta, X, y = random_instance(rng, family,
                                            weight_decay=weight_decay)
        w = rng.uniform(0, 1, X.shape[0])
        grad = models.weighted_nll_gradient(spec, theta, X, y, w)

        def loss(values):
            return models.mean_nll(spec, theta.replace(values), X, y, w)

        fd = finite_difference_gradient(loss, theta.values.copy())
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad.values - fd) / scale) < 1e-5


def test_gradient_all_ones_equals_unweighted(rng):
    spec, theta, X, y = random_instance(rng, models.SOFTMAX_LINEAR)
    g1 = models.weighted_nll_gradient(spec, theta, X, y, np.ones(X.shape[0]))
    g2 = models.weighted_nll_gradient(spec, theta, X, y, None)
    np.testing.assert_array_equal(g1.values, g2.values)


def test_gradient_all_zero_weights(rng):
    spec, theta, X, y = random_instance(rng, models.SOFTMAX_LINEAR)
    g = models.weighted_nll_gradient(spec, theta, X, y, np.zeros(X.shape[0]))
    np.testing.assert_array_equal(g.values, 0.0)


def test_gradient_linearity_in_weights(rng):
    # singleton batch, zero decay: grad(a + b) = grad(a) + grad(b)
    spec, theta, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=1)
    a, b = 0.3, 0.45
    ga = models.weighted_nll_gradient(spec, theta, X, y, [a])
    gb = models.weighted_nll_gradient(spec, theta, X, y, [b])
    gab = models.weighted_nll_gradient(spec, theta, X, y, [a + b])
    np.testing.assert_allclose(gab.values, ga.values + gb.values,
                               rtol=1e-12, atol=1e-15)


def test_gradient_rejects_bad_weights(rng):
    # NaN < 0 and NaN > 1 are both False, so a range check by those two
    # comparisons lets a NaN weight through
    spec, theta, X, y = random_instance(rng, models.SOFTMAX_LINEAR)
    for bad in (1.5, np.nan):
        weights = np.full(X.shape[0], 0.5)
        weights[2] = bad
        with pytest.raises(models.ModelError, match=r"weights must lie in"):
            models.weighted_nll_gradient(spec, theta, X, y, weights)


def test_sparse_dense_agreement(rng):
    spec, theta, X, y = random_instance(rng, models.MLP_1_HIDDEN)
    Xs = sp.csr_matrix(X)
    np.testing.assert_allclose(models.forward_batch(spec, theta, Xs),
                               models.forward_batch(spec, theta, X),
                               rtol=1e-12)
    gs = models.weighted_nll_gradient(spec, theta, Xs, y)
    gd = models.weighted_nll_gradient(spec, theta, X, y)
    np.testing.assert_allclose(gs.values, gd.values, rtol=1e-10, atol=1e-14)


def test_clipped_gradient_sum_matches_per_example(rng):
    for family in (models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN):
        spec, theta, X, y = random_instance(rng, family, n=5)
        C = 0.05
        total, norms = models.clipped_gradient_sum(spec, theta, X, y, C)
        # brute force: one-record batches, unweighted per-example gradients
        expected = np.zeros(spec.num_params)
        for i in range(X.shape[0]):
            gi = models.weighted_nll_gradient(
                spec, theta, X[i:i + 1], y[i:i + 1]).values
            norm = np.linalg.norm(gi)
            assert norm == pytest.approx(norms[i], rel=1e-10)
            expected += gi * min(1.0, C / norm)
        np.testing.assert_allclose(total.values, expected, rtol=1e-9,
                                   atol=1e-14)


def test_checkpoint_round_trip(tmp_path, rng):
    spec, theta, _, _ = random_instance(rng, models.MLP_1_HIDDEN)
    path = tmp_path / "model.bin"
    save_checkpoint(path, theta, {"seed": 7})
    loaded, head = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.values, theta.values)
    assert loaded.layout == theta.layout
    assert head["seed"] == 7


@settings(max_examples=15, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 3), max_size=2), min_size=1,
                       max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_checkpoint_round_trip_and_truncation(tmp_path_factory, shapes, seed):
    layout = Layout([("t%d" % i, shape) for i, shape in enumerate(shapes)])
    theta = ParameterVector(
        np.random.default_rng(seed).normal(0, 1, layout.size), layout)
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(path, theta, {"seed": seed})
    loaded, head = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.values, theta.values)
    assert loaded.layout == layout and head["seed"] == seed
    blob = path.read_bytes()
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(LayoutError):
            load_checkpoint(path)


@settings(max_examples=40, deadline=None)
@given(length=st.one_of(st.integers(0, 400), st.integers(0, 2 ** 64 - 1)))
def test_checkpoint_header_length_field_raises_layout_error(
        tmp_path_factory, length):
    layout = Layout([("w", (2, 3)), ("b", (3,))])
    theta = ParameterVector(np.arange(9.0), layout)
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(path, theta, {"epsilon": 1.5})
    blob = path.read_bytes()
    assume(length != struct.unpack("<Q", blob[8:16])[0])
    path.write_bytes(blob[:8] + struct.pack("<Q", length) + blob[16:])
    with pytest.raises(LayoutError):
        load_checkpoint(path)


def test_layout_partition():
    spec = models.ModelSpec(models.MLP_1_HIDDEN, 5, 3, 4)
    layout = spec.layout()
    offsets = [(off, off + int(np.prod(shape)))
               for _, shape, off in layout.slots]
    assert offsets[0][0] == 0
    for (_, end), (start, _) in zip(offsets, offsets[1:]):
        assert end == start
    assert offsets[-1][1] == layout.size == spec.num_params


def test_layout_view_of_an_unknown_name_raises_layout_error():
    layout = Layout([("w", (2, 3)), ("b", (3,))])
    with pytest.raises(LayoutError, match="'W'"):
        layout.view(np.zeros(layout.size), "W")


@pytest.mark.parametrize("dims", [(5, 3, 2.5), (5, 2.0, 0), (-1, 3, 0),
                                  ("5", 3, 0), (5, 3, True)])
def test_model_spec_rejects_a_bad_dimension(dims):
    input_dim, num_classes, hidden_dim = dims
    family = models.MLP_1_HIDDEN if hidden_dim else models.SOFTMAX_LINEAR
    with pytest.raises(ValueError):
        models.ModelSpec(family, input_dim, num_classes, hidden_dim)


@pytest.mark.parametrize("weight_decay", [float("inf"), 10 ** 400,
                                          float("nan"), -0.1])
def test_model_spec_rejects_a_bad_weight_decay(weight_decay):
    with pytest.raises(models.ModelError,
                       match="weight_decay must be finite and >= 0"):
        models.ModelSpec(models.SOFTMAX_LINEAR, 5, 3,
                         weight_decay=weight_decay)


def test_model_spec_rejects_more_parameters_than_one_array_holds():
    # 3 * (d + 1) parameters, at the limit and one column past it
    limit = np.iinfo(np.intp).max // 8
    assert models.ModelSpec(models.SOFTMAX_LINEAR, limit // 3 - 1,
                            3).num_params == limit
    for family, input_dim, hidden_dim in [
            (models.SOFTMAX_LINEAR, limit // 3, 0),
            (models.SOFTMAX_LINEAR, 2 ** 62, 0),
            (models.MLP_1_HIDDEN, 2 ** 40, 2 ** 21)]:
        with pytest.raises(models.ModelError,
                           match="more than one float64 array holds"):
            models.ModelSpec(family, input_dim, 3, hidden_dim)


def _frozen_init_params(spec, seed):
    # Reference: init_params as it was when it did its own offset arithmetic
    layout = spec.layout()
    values = np.zeros(layout.size)
    if spec.family == models.MLP_1_HIDDEN:
        rng = np.random.default_rng(seed)
        offsets = {name: (shape, off) for name, shape, off in layout.slots}
        for name, fan_in in (("W1", spec.input_dim), ("W2", spec.hidden_dim)):
            shape, offset = offsets[name]
            size = int(np.prod(shape))
            bound = 1.0 / np.sqrt(fan_in)
            values[offset:offset + size] = rng.uniform(-bound, bound, size)
    return values


@settings(max_examples=20, deadline=None)
@given(input_dim=st.integers(1, 12), num_classes=st.integers(2, 5),
       hidden_dim=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_init_params_matches_frozen_offset_arithmetic(input_dim, num_classes,
                                                      hidden_dim, seed):
    family = models.MLP_1_HIDDEN if hidden_dim else models.SOFTMAX_LINEAR
    spec = models.ModelSpec(family, input_dim, num_classes, hidden_dim)
    got = models.init_params(spec, seed).values
    assert (got == _frozen_init_params(spec, seed)).all()


def test_checkpoint_bytes_match_frozen_writer(tmp_path, rng):
    spec, theta, _, _ = random_instance(rng, models.MLP_1_HIDDEN)
    path = tmp_path / "model.bin"
    save_checkpoint(path, theta, {"seed": 7, "epsilon": 1.5})
    head = {"seed": 7, "epsilon": 1.5, "layout": theta.layout.to_json()}
    assert path.read_bytes() == frozen_frame(
        b"SWPPMCK1", head, theta.values.astype("<f8").tobytes())


def _frozen_write_file(path, magic, head, *arrays):
    # Reference: write_file as it was, one whole copy of each array
    payload = b"".join(values.astype("<f8").tobytes() for values in arrays)
    path.write_bytes(frozen_frame(magic, head, payload))


@pytest.mark.parametrize("arrays", [
    [np.arange(7.0)],
    [np.arange(12.0).reshape(3, 4), np.arange(5.0)],
    [np.arange(12.0).reshape(4, 3).T],  # a (k, p) view of a (p, k) buffer
    [np.arange(6.0), np.empty((4, 0)).T, np.arange(3.0)],  # k = 0
    [np.arange(10, dtype=np.float32).reshape(5, 2).T],
    [np.empty(0)]])
def test_write_file_bytes_match_frozen_writer(tmp_path, arrays):
    head = {"layout": [["t", [1]]], "k": 2}
    write_file(tmp_path / "got.bin", b"SWPPMTS1", head, *arrays)
    _frozen_write_file(tmp_path / "want.bin", b"SWPPMTS1", head, *arrays)
    assert (tmp_path / "got.bin").read_bytes() == \
        (tmp_path / "want.bin").read_bytes()


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 3), max_size=2), max_size=2),
       bad=BAD_DIMS, where=st.integers(0, 2), values=st.integers(0, 8))
def test_checkpoint_with_a_bad_dimension_raises_layout_error(
        tmp_path_factory, shapes, bad, where, values):
    shapes.insert(where % (len(shapes) + 1), [1, bad])
    head = {"layout": [["t%d" % i, shape] for i, shape in enumerate(shapes)]}
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    path.write_bytes(frozen_frame(b"SWPPMCK1", head, bytes(8 * values)))
    with pytest.raises(LayoutError):
        load_checkpoint(path)


def test_checkpoint_with_a_repeated_tensor_raises_layout_error(tmp_path):
    # a repeated name would leave view reading only its first slot
    with pytest.raises(LayoutError, match="tensor 'W' repeats"):
        Layout([("W", (2,)), ("b", (1,)), ("W", (2,))])
    head = {"layout": [["W", [2]], ["b", [1]], ["W", [2]]]}
    path = tmp_path / "model.bin"
    path.write_bytes(frozen_frame(b"SWPPMCK1", head, bytes(8 * 5)))
    with pytest.raises(LayoutError, match="tensor 'W' repeats"):
        load_checkpoint(path)


@settings(max_examples=30, deadline=None)
@given(extra=st.binary(min_size=1, max_size=16))
def test_checkpoint_with_trailing_bytes_raises_layout_error(tmp_path_factory,
                                                            extra):
    layout = Layout([("w", (2, 3)), ("b", (3,))])
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(path, ParameterVector(np.arange(9.0), layout))
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(LayoutError):
        load_checkpoint(path)


def _frozen_probabilities(spec, theta, X):
    # Reference: forward_batch as it was before it scored in row blocks,
    # the whole batch at once, every step allocating its own array.
    def tensor(name):
        return theta.layout.view(theta.values, name)

    if spec.family == models.SOFTMAX_LINEAR:
        Z = np.asarray(X @ tensor("W") + tensor("b"))
    else:
        H = np.tanh(np.asarray(X @ tensor("W1")) + tensor("b1"))
        Z = H @ tensor("W2") + tensor("b2")
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def _frozen_log_likelihood(spec, theta, X, y):
    # Reference: log_likelihood_batch as it was before rows were scored in
    # reused buffers, every step allocating its own array.
    P = _frozen_probabilities(spec, theta, X)
    picked = P[np.arange(P.shape[0]), np.asarray(y)]
    return np.log(np.maximum(picked, models.PROB_FLOOR))


@pytest.mark.parametrize("family",
                         [models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN])
def test_buffered_scorer_matches_frozen_log_likelihood(rng, family):
    spec, theta, X, y = random_instance(rng, family, input_dim=40,
                                        num_classes=9, hidden_dim=6, n=257)
    X[rng.random(X.shape) < 0.8] = 0.0
    X = sp.csr_matrix(X)
    # the last theta drives some picked probabilities below PROB_FLOOR
    thetas = [theta.replace(theta.values * c) for c in (1.0, 0.3, 4.0)]
    thetas.append(theta.replace(theta.values * 400.0))
    rows = [row.copy() for row in
            models.log_likelihood_rows(spec, [t.values for t in thetas], X,
                                       y)]
    floored = 0
    for t, row in zip(thetas, rows):
        want = _frozen_log_likelihood(spec, t, X, y)
        np.testing.assert_array_equal(row, want)
        np.testing.assert_array_equal(
            models.log_likelihood_batch(spec, t, X, y), want)
        floored += np.count_nonzero(row == math.log(models.PROB_FLOOR))
    assert floored > 0


@pytest.mark.parametrize("family, hidden_dim, num_classes, n", [
    # n * hidden * classes above 10**6, so H @ W2 takes OpenBLAS's large
    # kernel, in blocks of ROW_BLOCK rows and, for a narrow MLP, of more
    (models.MLP_1_HIDDEN, 32, 20, 4500),
    (models.MLP_1_HIDDEN, 8, 5, 60000),
    (models.SOFTMAX_LINEAR, 0, 20, 6200),
])
def test_scorer_blocks_keep_the_whole_batch_bits(rng, family, hidden_dim,
                                                 num_classes, n):
    spec = models.ModelSpec(family, 40, num_classes, hidden_dim)
    theta = models.init_params(spec, 0).replace(
        rng.normal(0, 0.5, spec.num_params))
    X = sp.random(n, 40, density=0.2, format="csr", random_state=1)
    y = rng.integers(0, num_classes, n)
    blocks = models._row_blocks(spec, X)
    assert len(blocks) > 1
    assert [b for _, b in blocks[:-1]] == [a for a, _ in blocks[1:]]
    shortest = min(b - a for a, b in blocks)
    assert shortest >= models.ROW_BLOCK
    assert shortest * hidden_dim * num_classes > 10 ** 6 or not hidden_dim
    row = next(models.log_likelihood_rows(spec, [theta.values], X, y))
    assert row.tobytes() == _frozen_log_likelihood(spec, theta, X,
                                                   y).tobytes()
    # forward_batch takes the same blocks
    P = models.forward_batch(spec, theta, X)
    assert P.tobytes() == _frozen_probabilities(spec, theta, X).tobytes()


def test_forward_batch_holds_one_blocks_hidden_activations():
    # the whole batch's hidden activations (n x hidden) are never held:
    # the peak beyond the output is below half of them at three blocks
    spec = models.ModelSpec(models.MLP_1_HIDDEN, 40, 5, 32)
    theta = models.init_params(spec, 0)
    X = sp.random(20000, 40, density=0.2, format="csr", random_state=1)
    assert len(models._row_blocks(spec, X)) == 3
    peak = traced_peak(lambda: models.forward_batch(spec, theta, X))
    assert peak - 20000 * 5 * 8 < 20000 * 32 * 8 // 2


@st.composite
def _csr_rows_and_operand(draw):
    # a CSR matrix with empty rows and explicit stored zeros, int32 or int64
    # index arrays, a row range (possibly empty, possibly not at row 0) and
    # dense operands holding negatives and zeros of either sign
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = rng.normal(size=(n, d))
    dense[rng.random((n, d)) < draw(st.sampled_from([0.3, 0.7, 1.0]))] = 0.0
    dense[rng.random(n) < 0.3] = 0.0  # empty rows
    X = sp.csr_matrix(dense)
    X.data[rng.random(X.nnz) < 0.2] = 0.0  # stored zeros
    index = draw(st.sampled_from([np.int32, np.int64]))
    X.indices = X.indices.astype(index)
    X.indptr = X.indptr.astype(index)
    assert X.indices.dtype == X.indptr.dtype == index
    a = draw(st.integers(0, n))
    b = draw(st.integers(a, n))

    def operand(rows):
        values = rng.choice([0.0, -0.0, 1.5, -2.25], size=(rows, k))
        return np.where(rng.random((rows, k)) < 0.5, values,
                        rng.normal(size=(rows, k)))

    return X, (a, b), operand(d), operand(b - a)


@pytest.mark.floor_versions
@settings(max_examples=200, deadline=None)
@given(case=_csr_rows_and_operand())
def test_sparse_products_equal_scipy_on_the_row_slice(case):
    # the in-place kernels give the bits of scipy's products on X[a:b],
    # whatever out held before
    X, (a, b), W, D = case
    rows = X[a:b]
    out = np.full((b - a, W.shape[1]), np.nan)
    assert models._csr_matmul(X, (a, b), W, out) is out
    assert out.tobytes() == (rows @ W).tobytes()
    out = np.full((X.shape[1], D.shape[1]), -0.0)
    assert models._csr_t_matmul(X, (a, b), D, out) is out
    assert out.tobytes() == (rows.T @ D).tobytes()


@pytest.mark.floor_versions
def test_sparse_products_refuse_an_out_they_cannot_write_in_place():
    X = sp.random(6, 4, density=0.5, format="csr", random_state=0)
    W, D = np.ones((4, 3)), np.ones((6, 3))
    for out in (np.zeros((6, 6))[:, ::2], np.zeros((6, 3), order="F"),
                np.zeros((6, 3), dtype=np.float32), np.zeros((5, 3))):
        with pytest.raises(models.ModelError, match="C-contiguous"):
            models._csr_matmul(X, (0, 6), W, out)
    for out in (np.zeros((4, 6))[:, ::2], np.zeros((4, 3), order="F")):
        with pytest.raises(models.ModelError, match="C-contiguous"):
            models._csr_t_matmul(X, (0, 6), D, out)
    # an operand of the wrong size would be read past its end
    with pytest.raises(models.ModelError, match="operands"):
        models._csr_matmul(X, (0, 6), np.ones((5, 3)), np.zeros((6, 3)))
    with pytest.raises(models.ModelError, match="operands"):
        models._csr_t_matmul(X, (1, 6), D, np.zeros((4, 3)))
    # so would a row range past X's end
    with pytest.raises(models.ModelError, match="rows"):
        models._csr_matmul(X, (4, 7), W, np.zeros((3, 3)))
    with pytest.raises(models.ModelError, match="rows"):
        models._csr_t_matmul(X, (2, 8), D, np.zeros((4, 3)))


@pytest.mark.floor_versions
@pytest.mark.parametrize("indptr", [[0, 10, 4], [1, 2, 4], [0, 2, 3],
                                    [0, 2, 5]])
def test_as_csr_rejects_an_index_pointer_the_kernels_would_read_past(
        indptr):
    # scipy builds a matrix whose pointer steps down, and a forward pass on
    # [0, 10, 4] read past its arrays until the process died; the other
    # pointers are set after scipy checked the matrix. No kernel runs here.
    spec = models.ModelSpec(models.SOFTMAX_LINEAR, 8, 2)
    X = sp.csr_matrix((np.ones(4), [0, 1, 2, 3], [0, 2, 4]), shape=(2, 8))
    X.indptr = np.array(indptr, dtype=X.indices.dtype)
    with pytest.raises(models.ModelError, match="index pointer"):
        models.as_csr(spec, X)


@pytest.mark.parametrize("family",
                         [models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_fused_gradient_and_loss_match_separate_passes(rng, family,
                                                       weight_decay):
    spec, theta, X, y = random_instance(rng, family, n=30,
                                        weight_decay=weight_decay)
    X[rng.random(X.shape) < 0.5] = 0.0
    X = sp.csr_matrix(X)
    # gradient_into is the one forward and backward pass under both public
    # gradients; its log-likelihoods give the loss the trainer reports
    for weights in (None, rng.uniform(0, 1, X.shape[0])):
        grad = np.empty(spec.num_params)
        scale = 1.0 / 30 if weights is None else (weights / 30)[:, None]
        _, loglik = models.gradient_into(spec, theta.values, X, (0, 30), y,
                                         grad, scale)
        if weight_decay:
            grad += weight_decay * theta.values
        np.testing.assert_array_equal(
            grad, models.weighted_nll_gradient(spec, theta, X, y,
                                               weights).values)
        np.testing.assert_array_equal(
            loglik, models.log_likelihood_batch(spec, theta, X, y))
        assert models.nll_term(loglik, weights) \
            + models.decay_penalty(spec, theta.values) \
            == models.mean_nll(spec, theta, X, y, weights)
    grad = np.empty(spec.num_params)
    norms, loglik = models.gradient_into(spec, theta.values, X, (0, 30), y,
                                         grad, clip_norm=0.05,
                                         x_sq=models.row_sq_norms(X))
    ref, ref_norms = models.clipped_gradient_sum(spec, theta, X, y, 0.05)
    np.testing.assert_array_equal(grad, ref.values)
    np.testing.assert_array_equal(norms, ref_norms)
    assert models.nll_term(loglik) + models.decay_penalty(spec, theta.values) \
        == models.mean_nll(spec, theta, X, y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       family=st.sampled_from([models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN]),
       n=st.integers(1, 40), input_dim=st.integers(1, 100))
def test_clipped_gradient_with_indexed_row_norms_equals_without(
        seed, family, n, input_dim):
    # the trainer takes row_sq_norms of all of X once and indexes it by each
    # Poisson batch's rows
    rng = np.random.default_rng(seed)
    spec, theta, X, y = random_instance(rng, family, input_dim=input_dim, n=n)
    X[rng.random(X.shape) < 0.5] = 0.0
    X = sp.csr_matrix(X)
    idx = np.nonzero(rng.random(n) < 0.5)[0]
    assume(idx.size)
    want, want_norms = models.clipped_gradient_sum(spec, theta, X[idx],
                                                   y[idx], 0.05)
    got = np.empty(spec.num_params)
    got_norms, _ = models.gradient_into(
        spec, theta.values, X[idx], (0, idx.size), y[idx], got,
        clip_norm=0.05, x_sq=models.row_sq_norms(X)[idx])
    assert (got == want.values).all()
    assert (got_norms == want_norms).all()


@pytest.mark.parametrize("family",
                         [models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN])
def test_a_dense_x_gives_the_bits_of_its_csr_matrix(rng, family):
    # every public batch function converts a dense X to CSR on entry, so
    # the two give the same result under ==
    spec, theta, X, y = random_instance(rng, family, input_dim=40,
                                        num_classes=9, hidden_dim=6, n=257,
                                        weight_decay=0.1)
    X[rng.random(X.shape) < 0.8] = 0.0
    w = rng.uniform(0, 1, X.shape[0])
    calls = [
        lambda X: models.forward_batch(spec, theta, X),
        lambda X: next(models.log_likelihood_rows(spec, [theta.values], X,
                                                  y)).copy(),
        lambda X: models.log_likelihood_batch(spec, theta, X, y),
        lambda X: models.mean_nll(spec, theta, X, y, w),
        lambda X: models.weighted_nll_gradient(spec, theta, X, y, w).values,
        lambda X: models.clipped_gradient_sum(spec, theta, X, y,
                                              0.05)[0].values,
        lambda X: models.clipped_gradient_sum(spec, theta, X, y, 0.05)[1],
    ]
    for call in calls:
        np.testing.assert_array_equal(call(X), call(sp.csr_matrix(X)))


@pytest.mark.parametrize("size", [1, 100, models.DOT_SLICE])
def test_sq_norm_of_one_slice_is_one_dot(size):
    values = np.random.default_rng(size).normal(size=size)
    assert models._sq_norm(values) == float(values @ values)


def test_sq_norm_over_slices_sees_every_entry():
    values = np.random.default_rng(0).normal(size=2 * models.DOT_SLICE + 5)
    assert models._sq_norm(values) == pytest.approx(float(values @ values),
                                                    rel=1e-12)
    for bad, want in ((np.inf, np.isposinf), (np.nan, np.isnan)):
        values[-1] = bad
        assert want(models._sq_norm(values))


SPECIAL = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1.0, -1.0, 700.0]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), num_classes=st.integers(2, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scored_rows_match_frozen_on_special_logits(n, num_classes, seed):
    # log_likelihood_rows takes each row's max as a running maximum over the
    # columns, the frozen scorer with np.max; logits with infinities, NaNs of
    # either sign and zeros of either sign must give the same rows
    rng = np.random.default_rng(seed)
    logits = rng.choice(SPECIAL, size=(n, num_classes))
    y = rng.integers(num_classes, size=n)
    spec = models.ModelSpec(models.SOFTMAX_LINEAR, 3, num_classes)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(models, "_logits",
                   lambda spec, theta, X, rows, Z, H: (theta.copy(), None))
        got = next(models.log_likelihood_rows(spec, [logits],
                                              np.zeros((n, 3)), y))
        Z = logits - logits.max(axis=1, keepdims=True)
        E = np.exp(Z)
        P = E / E.sum(axis=1, keepdims=True)
        want = np.log(np.maximum(P[np.arange(n), y], models.PROB_FLOOR))
    np.testing.assert_array_equal(got, want)  # NaN where want has NaN
    # a NaN's sign follows the NaN the row max returned, and np.max's
    # reduction may return a NaN of the other sign than the one it met;
    # every caller takes |ll| or rejects a NaN
    real = ~np.isnan(want)
    assert got[real].tobytes() == want[real].tobytes()


def test_running_row_max_equals_np_max():
    Z = np.array([[np.inf, 0.0, 1.0], [-np.inf, -np.inf, -np.inf],
                  [1.0, np.nan, np.inf], [-0.0, -0.0, -0.0],
                  [-5.0, 3.0, 2.5]])
    out = np.empty(Z.shape[0])
    models._running_row_max(Z, out)
    np.testing.assert_array_equal(out, np.max(Z, axis=1))
    assert np.signbit(out[3])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda spec, theta, X, y: models.weighted_nll_gradient(
        spec, theta, X[:0], y[:0]), "empty batch", id="gradient-no-records"),
    pytest.param(lambda spec, theta, X, y: models.weighted_nll_gradient(
        spec, theta, X, y, np.ones(X.shape[0] + 1)),
        "weights length does not match batch size", id="gradient-weights"),
    pytest.param(lambda spec, theta, X, y: models.clipped_gradient_sum(
        spec, theta, X[:0], y[:0], 1.0), "empty minibatch",
        id="clipped-sum-no-records"),
])
def test_gradients_refuse_an_empty_batch_or_misfit_weights(rng, call,
                                                           message):
    spec, theta, X, y = random_instance(rng, models.SOFTMAX_LINEAR)
    with pytest.raises(models.ModelError, match="^%s$" % message):
        call(spec, theta, X, y)


@pytest.mark.parametrize("values, message", [
    ([0.0, 1.0, 2.0], "values length 3 does not match layout size 4"),
    ([0.0, 1.0, np.nan, 3.0], "parameter vector contains non-finite entries"),
    ([0.0, -np.inf, 2.0, 3.0],
     "parameter vector contains non-finite entries"),
])
def test_parameter_vector_refuses_a_wrong_length_or_non_finite_entry(values,
                                                                    message):
    with pytest.raises(LayoutError, match="^%s$" % message):
        ParameterVector(values, Layout([("W", (2, 2))]))


def test_checkpoint_whose_payload_holds_a_nan_raises_layout_error(tmp_path):
    path = tmp_path / "nan.bin"
    write_file(path, b"SWPPMCK1", {"layout": [["W", [3]]]},
               np.array([1.0, np.nan, 2.0]))
    with pytest.raises(LayoutError,
                       match="^parameter vector contains non-finite entries$"):
        load_checkpoint(str(path))
