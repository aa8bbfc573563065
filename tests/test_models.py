import math
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from swagppm import models
from swagppm.params import (Layout, LayoutError, ParameterVector,
                            load_checkpoint, save_checkpoint)

from conftest import (BAD_DIMS, finite_difference_gradient, frozen_frame,
                      random_instance)


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
    spec, theta, X, y = random_instance(rng, models.SOFTMAX_LINEAR)
    with pytest.raises(models.ModelError):
        models.weighted_nll_gradient(spec, theta, X, y,
                                     np.full(X.shape[0], 1.5))


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


def _frozen_log_likelihood(spec, theta, X, y):
    # Reference: log_likelihood_batch as it was before rows were scored in
    # reused buffers, every step allocating its own array.
    def tensor(name):
        return theta.layout.view(theta.values, name)

    if spec.family == models.SOFTMAX_LINEAR:
        Z = np.asarray(X @ tensor("W") + tensor("b"))
    else:
        H = np.tanh(np.asarray(X @ tensor("W1")) + tensor("b1"))
        Z = H @ tensor("W2") + tensor("b2")
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    P = E / E.sum(axis=1, keepdims=True)
    picked = P[np.arange(P.shape[0]), np.asarray(y)]
    return np.log(np.maximum(picked, models.PROB_FLOOR))


@pytest.mark.parametrize("family",
                         [models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN])
@pytest.mark.parametrize("sparse", [False, True])
def test_buffered_scorer_matches_frozen_log_likelihood(rng, family, sparse):
    spec, theta, X, y = random_instance(rng, family, input_dim=40,
                                        num_classes=9, hidden_dim=6, n=257)
    X[rng.random(X.shape) < 0.8] = 0.0
    if sparse:
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


@pytest.mark.parametrize("family",
                         [models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_fused_gradient_and_loss_match_separate_passes(rng, family,
                                                       weight_decay):
    spec, theta, X, y = random_instance(rng, family, n=30,
                                        weight_decay=weight_decay)
    for weights in (None, rng.uniform(0, 1, X.shape[0])):
        grad, loglik = models.weighted_gradient_loglik(spec, theta.values, X,
                                                       y, weights)
        np.testing.assert_array_equal(
            grad, models.weighted_nll_gradient(spec, theta, X, y,
                                               weights).values)
        np.testing.assert_array_equal(
            loglik, models.log_likelihood_batch(spec, theta, X, y))
        assert models.objective(spec, theta.values, loglik, weights) == \
            models.mean_nll(spec, theta, X, y, weights)
    grad, norms, loglik = models.clipped_gradient_loglik(spec, theta.values,
                                                         X, y, 0.05)
    ref, ref_norms = models.clipped_gradient_sum(spec, theta, X, y, 0.05)
    np.testing.assert_array_equal(grad, ref.values)
    np.testing.assert_array_equal(norms, ref_norms)
    assert models.objective(spec, theta.values, loglik) == \
        models.mean_nll(spec, theta, X, y)
