import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from swagppm import blas, csr, models, trainer
from swagppm.params import ParameterVector

from conftest import large_instance, random_instance, traced_peak


def separable_2class():
    spec = models.ModelSpec(models.SOFTMAX_LINEAR, 1, 2)
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    theta0 = ParameterVector(np.zeros(spec.num_params), spec.layout())
    return spec, theta0, X, y


def test_sgd_loss_non_increasing():
    spec, theta0, X, y = separable_2class()
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 4, 20, seed=0)
    _, losses = trainer.train(spec, theta0, X, y, cfg)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_zero_epochs_identity():
    spec, theta0, X, y = separable_2class()
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 4, 0, seed=0)
    theta, losses = trainer.train(spec, theta0, X, y, cfg)
    assert losses == []
    np.testing.assert_array_equal(theta.values, theta0.values)


@pytest.mark.parametrize("optimizer",
                         [trainer.SGD_CONSTANT, trainer.ADAPTIVE])
def test_train_deterministic(rng, optimizer):
    spec, theta0, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=20,
                                         weight_decay=0.01)
    cfg = trainer.TrainConfig(optimizer, 0.05, 5, 3, seed=99)
    a, _ = trainer.train(spec, theta0, X, y, cfg)
    b, _ = trainer.train(spec, theta0, X, y, cfg)
    np.testing.assert_array_equal(a.values, b.values)


def test_snapshot_matches_live_parameters(rng):
    # the sink sees the live array, read-only, once per epoch
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 4, 2, seed=5)
    seen = []

    def sink(values):
        assert not values.flags.writeable
        seen.append(values)

    theta, losses = trainer.train(spec, theta0, X, y, cfg, on_epoch=sink)
    assert len(seen) == len(losses) == 2
    assert seen[0] is seen[1]
    np.testing.assert_array_equal(seen[1], theta.values)


def test_batch_size_exceeds_dataset(rng):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=4)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 10, 1, seed=5)
    with pytest.raises(trainer.TrainError):
        trainer.train(spec, theta0, X, y, cfg)


def test_train_checks_the_feature_width_on_entry(rng):
    # X is converted and checked once, before any step: also at 0 epochs
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=4)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 2, 0, seed=5)
    for features in (X[:, :-1], sp.csr_matrix(X[:, :-1])):
        with pytest.raises(models.ModelError, match=r"feature dim 4 .*\(W\)"):
            trainer.train(spec, theta0, features, y, cfg)


def test_train_refuses_a_dp_sgd_config(rng, monkeypatch):
    # DP-SGD trains only through train_dp_sweep, which takes its sigmas;
    # train refuses the config, with weights or without, before any step
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8)
    cfg = trainer.TrainConfig(trainer.DP_SGD, 0.1, 4, 1, seed=5,
                              clip_norm=1.0)
    steps = []
    monkeypatch.setattr(models, "gradient_into",
                        lambda *args, **kwargs: steps.append(1))
    for weights in (None, np.ones(8)):
        with pytest.raises(trainer.TrainError, match="train_dp_sweep"):
            trainer.train(spec, theta0, X, y, cfg, weights)
    assert not steps


def _shuffle_batches(n, batch_size, rng):
    # Reference: a shuffle-partition epoch, a random permutation chopped
    # into batch_size chunks, as the trainer takes it for SGD and Adam.
    perm = rng.permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


def _poisson_batches(n, batch_size, rng, q):
    # Reference: a DP-SGD epoch, ceil(n / batch_size) batches that each take
    # every record independently with probability q, as the trainer draws
    # them with q = batch_size / n.
    return [np.nonzero(rng.random(n) < q)[0]
            for _ in range(-(-n // batch_size))]


def test_shuffle_partition_covers():
    rng = np.random.default_rng(0)
    batches = _shuffle_batches(10, 3, rng)
    sizes = sorted(len(b) for b in batches)
    assert sizes == [1, 3, 3, 3]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))


def test_poisson_q_one_full_batches():
    rng = np.random.default_rng(0)
    batches = _poisson_batches(10, 5, rng, q=1.0 - 1e-16)
    # q effectively 1: every record in every batch
    batches = _poisson_batches(10, 5, rng, q=1.0)
    for b in batches:
        assert b.tolist() == list(range(10))


def test_poisson_inclusion_rate():
    rng = np.random.default_rng(7)
    n = 10_000
    (batch,) = _poisson_batches(n, n, rng, q=0.5)
    sd = np.sqrt(n * 0.25)
    assert abs(batch.size - 5000) < 3 * sd


def _one_full_batch_dp_step(spec, theta0, X, y, clip_norm, sigma, lr, seed):
    # batch_size n makes q = 1: one epoch is one step on every record
    cfg = trainer.TrainConfig(trainer.DP_SGD, lr, X.shape[0], 1, seed=seed,
                              clip_norm=clip_norm)
    theta, _ = _fit(spec, theta0, X, y, cfg, sigma=sigma)
    return theta


def test_dp_sgd_step_degenerates_to_sgd(rng):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=6)
    stepped = _one_full_batch_dp_step(spec, theta0, X, y, clip_norm=1e9,
                                      sigma=0.0, lr=0.1, seed=1)
    grad = models.weighted_nll_gradient(spec, theta0, X, y)
    plain = theta0.values - 0.1 * grad.values
    np.testing.assert_allclose(stepped.values, plain, rtol=1e-12, atol=1e-16)


def test_dp_sgd_clip_norm_exact(rng):
    spec, theta, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=1)
    g = models.weighted_nll_gradient(spec, theta, X, y).values
    norm = np.linalg.norm(g)
    C = norm / 2.0  # per-example norm is exactly 2C
    total, norms = models.clipped_gradient_sum(spec, theta, X, y, C)
    assert np.linalg.norm(total.values) == pytest.approx(C, abs=1e-12)


def test_dp_sgd_step_reproducible(rng):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=6)
    a = _one_full_batch_dp_step(spec, theta0, X, y, 1.0, 1.0, 0.1, seed=42)
    b = _one_full_batch_dp_step(spec, theta0, X, y, 1.0, 1.0, 0.1, seed=42)
    np.testing.assert_array_equal(a.values, b.values)


def test_clip_never_increases_norms(rng):
    spec, theta, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=10)
    C = 0.02
    for i in range(X.shape[0]):
        gi = models.weighted_nll_gradient(spec, theta, X[i:i + 1],
                                          y[i:i + 1]).values
        clipped = gi * min(1.0, C / np.linalg.norm(gi))
        assert np.linalg.norm(clipped) <= C + 1e-12


def test_dp_sgd_sigma_zero_infinite_clip_matches_sgd(rng):
    # identical batch order forced by a single full-data batch
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=6)
    n = X.shape[0]
    dp_cfg = trainer.TrainConfig(trainer.DP_SGD, 0.1, n, 3, seed=11,
                                 clip_norm=1e12)
    sgd_cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, n, 3, seed=11)
    a, _ = _fit(spec, theta0, X, y, dp_cfg, sigma=0.0)
    b, _ = trainer.train(spec, theta0, X, y, sgd_cfg)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-12, atol=1e-15)


def test_permuted_row_ranges_equal_fancy_indexed_batches(rng):
    # the CSR arrays of each batch match X[idx] exactly, not only its values
    X = sp.random(50, 30, density=0.2, format="csr", random_state=4)
    perm = np.random.default_rng(0).permutation(50)
    batches = _shuffle_batches(50, 8, np.random.default_rng(0))
    Xp = X[perm]
    for idx, rows in zip(batches, [slice(i, min(i + 8, 50))
                                   for i in range(0, 50, 8)]):
        want, got = X[idx], Xp[rows]
        for attr in ("indptr", "indices", "data"):
            assert (getattr(got, attr) == getattr(want, attr)).all()
        assert got.shape == want.shape


@st.composite
def _csr_with_empty_rows_and_zeros(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, d))
    dense[rng.random((n, d)) < draw(st.sampled_from([0.3, 0.7, 1.0]))] = 0.0
    dense[rng.random(n) < 0.3] = 0.0  # empty rows
    X = sp.csr_matrix(dense)
    # explicit zeros: stored entries whose value is 0.0
    X.data[rng.random(X.nnz) < 0.2] = 0.0
    return X, draw(st.integers(1, n)), seed


@pytest.mark.floor_versions
@settings(max_examples=60, deadline=None)
@given(case=_csr_with_empty_rows_and_zeros())
def test_row_batches_multiply_like_scipy_slices(case):
    # each batch's products, read in place from the permuted matrix's arrays
    # over its row range, have the bits of Xe[a:b] @ W and Xe[a:b].T @ D; n
    # need not divide by the batch size, so the last batch may be short
    X, batch_size, seed = case
    rng = np.random.default_rng(seed)
    n, d = X.shape
    Xe = X[rng.permutation(n)]
    W = rng.normal(size=(d, 3))
    for a in range(0, n, batch_size):
        b = min(a + batch_size, n)
        want = Xe[a:b]
        D = rng.normal(size=(b - a, 4))
        got = models._csr_matmul(Xe, (a, b), W, np.empty((b - a, 3)))
        assert got.tobytes() == (want @ W).tobytes()
        got = models._csr_t_matmul(Xe, (a, b), D, np.empty((d, 4)))
        assert got.tobytes() == (want.T @ D).tobytes()


def _no_slice_or_transpose(monkeypatch, permutations):
    # csr.take, the one way to index a csr.Matrix's rows, raises unless it
    # takes one index per row of X, a shuffle-partition epoch's one
    # permutation, which it appends to permutations; a csr.Matrix has no
    # transpose to take
    assert not any(hasattr(csr.Matrix, name) for name in ("T", "transpose"))
    take = csr.take

    def permutation_only(X, rows):
        if not (isinstance(rows, np.ndarray)
                and sorted(rows.tolist()) == list(range(X.shape[0]))):
            raise AssertionError("a CSR matrix indexed by %r" % (rows,))
        permutations.append(rows)
        return take(X, rows)

    monkeypatch.setattr(csr, "take", permutation_only)


@pytest.mark.parametrize("optimizer", [trainer.ADAPTIVE,
                                       trainer.SGD_CONSTANT])
@pytest.mark.parametrize("family",
                         [models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN])
def test_shuffle_partition_steps_neither_slice_nor_transpose_csr(
        rng, monkeypatch, optimizer, family):
    # 23 records in batches of 5: 5 steps an epoch, the last of 3 rows
    spec, theta0, X, y = random_instance(rng, family, n=23,
                                         weight_decay=0.01)
    X[rng.random(X.shape) < 0.5] = 0.0
    X = sp.csr_matrix(X)
    weights = rng.uniform(0, 1, 23)
    cfg = trainer.TrainConfig(optimizer, batch_size=5, epochs=3, seed=4,
                              **OPTIMIZER_CONFIGS[optimizer])
    want = trainer.train(spec, theta0, X, y, cfg, weights)
    permutations = []
    _no_slice_or_transpose(monkeypatch, permutations)
    got = trainer.train(spec, theta0, X, y, cfg, weights)
    assert len(permutations) == cfg.epochs
    np.testing.assert_array_equal(got[0].values, want[0].values)
    assert got[1] == want[1]


def test_dp_sgd_steps_never_transpose_csr(rng, monkeypatch):
    # each Poisson batch is csr.take(X, idx), taken once a step (2 epochs of
    # 5); its transpose is read from its arrays, as a csr.Matrix has none
    spec, theta0, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=23)
    X[rng.random(X.shape) < 0.5] = 0.0
    X = sp.csr_matrix(X)
    cfg = trainer.TrainConfig(trainer.DP_SGD, batch_size=5, epochs=2, seed=4,
                              **OPTIMIZER_CONFIGS[trainer.DP_SGD])
    want = _fit(spec, theta0, X, y, cfg)
    assert not any(hasattr(csr.Matrix, name) for name in ("T", "transpose"))
    taken = []
    take = csr.take
    monkeypatch.setattr(csr, "take",
                        lambda X, rows: taken.append(rows) or take(X, rows))
    got = _fit(spec, theta0, X, y, cfg)
    assert len(taken) == 10
    np.testing.assert_array_equal(got[0].values, want[0].values)
    assert got[1] == want[1]


@pytest.mark.parametrize("optimizer", [trainer.ADAPTIVE,
                                       trainer.SGD_CONSTANT])
@pytest.mark.parametrize("sparse", [False, True])
def test_step_gradient_equals_weighted_gradient_loglik(rng, monkeypatch,
                                                       optimizer, sparse):
    # each step's gradient, as train's buffer holds it after the pass, has
    # the bits of the public function on the same batch, theta and weights
    # at zero decay (the step adds its decay in the update)
    spec, theta0, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=23,
                                         weight_decay=0.01)
    if sparse:
        X[rng.random(X.shape) < 0.5] = 0.0
        X = sp.csr_matrix(X)
    weights = rng.uniform(0, 1, 23)
    cfg = trainer.TrainConfig(optimizer, batch_size=5, epochs=2, seed=6,
                              **OPTIMIZER_CONFIGS[optimizer])
    gradient = models.gradient_into
    steps = []

    def recording(spec, theta, *args, **kwargs):
        before = theta.copy()
        result = gradient(spec, theta, *args, **kwargs)
        steps.append((before, args[3].copy()))  # args[3] is out
        return result

    monkeypatch.setattr(models, "gradient_into", recording)
    for w in (None, weights):
        steps.clear()
        trainer.train(spec, theta0, X, y, cfg, w)
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(2)[0])
        batches = [idx for _ in range(cfg.epochs)
                   for idx in _shuffle_batches(23, 5, shuffle_rng)]
        assert len(steps) == len(batches) == 10
        no_decay = models.ModelSpec(spec.family, spec.input_dim,
                                    spec.num_classes, spec.hidden_dim)
        for (theta, got), idx in zip(steps, batches):
            want = models.weighted_nll_gradient(
                no_decay, ParameterVector(theta, spec.layout()), X[idx],
                y[idx], None if w is None else w[idx])
            assert got.tobytes() == want.values.tobytes()


def test_train_checks_weights_once_before_the_first_step(rng, monkeypatch):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 2, 1, seed=0)
    steps = []
    monkeypatch.setattr(models, "gradient_into",
                        lambda *args, **kwargs: steps.append(1))
    for bad in (-0.1, 1.5, np.nan):
        weights = np.full(8, 0.5)
        weights[6] = bad
        with pytest.raises(models.ModelError,
                           match=r"weights must lie in \[0, 1\]"):
            trainer.train(spec, theta0, X, y, cfg, weights)
    assert not steps


def test_dp_sgd_config_validation():
    with pytest.raises(trainer.TrainError):
        trainer.TrainConfig(trainer.DP_SGD, 0.1, 4, 1, seed=0)


@pytest.mark.parametrize("fields", [
    {"learning_rate": None}, {"learning_rate": "0.1"},
    {"learning_rate": float("nan")}, {"batch_size": 3.5},
    {"batch_size": "4"}, {"batch_size": None}, {"epochs": 2.0},
    {"epochs": None}, {"optimizer": trainer.DP_SGD, "clip_norm": "1"},
    {"optimizer": trainer.DP_SGD, "clip_norm": [1.0]},
    {"batch_size": True}, {"epochs": True}, {"learning_rate": True},
    {"optimizer": trainer.DP_SGD, "clip_norm": True},
    {"optimizer": None},
    # not finite, or past a float's range
    {"learning_rate": float("inf")}, {"learning_rate": 10 ** 400},
    {"clip_norm": float("inf")},
])
def test_config_of_a_wrong_type_raises_train_error(fields):
    args = dict(optimizer=trainer.DP_SGD, learning_rate=0.1, batch_size=4,
                epochs=1, seed=0, clip_norm=1.0)
    trainer.TrainConfig(**args)
    with pytest.raises(trainer.TrainError):
        trainer.TrainConfig(**dict(args, **fields))


def _frozen_train(spec, theta0, X, y, config, weights=None, sigma=None):
    # Reference: training as it was before its steps reused buffers: each
    # step's data term from a separate mean_nll pass without decay, then
    # allocating AdamW, SGD and DP-SGD updates (DP-SGD at noise multiplier
    # sigma, an empty Poisson batch taking its noise with a zero gradient),
    # with weight decay spec.weight_decay and no decay in DP-SGD. Returns
    # the parameters after each epoch and the epoch's loss: the
    # batch-size-weighted mean of the non-empty batches' data terms (NaN
    # for an epoch whose Poisson batches were all empty) plus 0.5 *
    # weight_decay * ||theta||^2 at the epoch's end (one dot: the test
    # instances hold under DOT_SLICE entries).
    shuffle_rng, noise_rng = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(2)]
    c = config
    n = X.shape[0]
    no_decay = models.ModelSpec(spec.family, spec.input_dim,
                                spec.num_classes, spec.hidden_dim, 0.0)
    theta = theta0.values
    m = v = np.zeros(theta.size)
    t = 0
    out = []
    for _ in range(c.epochs):
        if c.optimizer == trainer.DP_SGD:
            batches = _poisson_batches(n, c.batch_size, shuffle_rng,
                                       c.batch_size / n)
        else:
            batches = _shuffle_batches(n, c.batch_size, shuffle_rng)
        loss_sum, count = 0.0, 0
        for idx in batches:
            Xb, yb = X[idx], y[idx]
            wb = None if weights is None else weights[idx]
            cur = ParameterVector(theta, theta0.layout)
            if idx.size:
                loss_sum += models.mean_nll(no_decay, cur, Xb, yb,
                                            wb) * idx.size
                count += idx.size
            if c.optimizer == trainer.DP_SGD:
                g = (models.clipped_gradient_sum(spec, cur, Xb, yb,
                                                 c.clip_norm)[0].values
                     if idx.size else np.zeros(theta.size))
                noise = noise_rng.normal(0.0, sigma * c.clip_norm,
                                         size=theta.size)
                theta = theta - c.learning_rate * (g + noise) / c.batch_size
            elif c.optimizer == trainer.SGD_CONSTANT:
                g = models.weighted_nll_gradient(spec, cur, Xb, yb, wb).values
                theta = theta - c.learning_rate * g
            else:
                g = models.weighted_nll_gradient(no_decay, cur, Xb, yb,
                                                 wb).values
                t += 1
                m = 0.9 * m + (1 - 0.9) * g
                v = 0.999 * v + (1 - 0.999) * g * g
                m_hat = m / (1 - 0.9 ** t)
                v_hat = v / (1 - 0.999 ** t)
                step = c.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
                new = theta - step
                if spec.weight_decay:
                    new = new - c.learning_rate * spec.weight_decay * theta
                theta = new
        out.append((theta, (loss_sum / count if count else float("nan"))
                    + 0.5 * spec.weight_decay * float(theta @ theta)))
    return out


OPTIMIZER_CONFIGS = {
    trainer.ADAPTIVE: dict(learning_rate=0.05),
    trainer.SGD_CONSTANT: dict(learning_rate=0.1),
    trainer.DP_SGD: dict(learning_rate=0.1, clip_norm=0.5),
}
DP_SIGMA = 1.1  # the noise multiplier a DP-SGD case trains at


def _fit(spec, theta0, X, y, cfg, weights=None, on_epoch=None,
         sigma=DP_SIGMA):
    # train, its sink on_epoch, or for a DP-SGD config train_dp_sweep at the
    # one sigma, which takes no sink, and whose TrainError it raises
    if cfg.optimizer != trainer.DP_SGD:
        return trainer.train(spec, theta0, X, y, cfg, weights, on_epoch)
    assert weights is None  # DP-SGD takes none
    (result,) = trainer.train_dp_sweep(spec, theta0, X, y, cfg, [sigma])
    if isinstance(result, trainer.TrainError):
        raise result
    return result


@pytest.mark.floor_versions
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZER_CONFIGS))
@pytest.mark.parametrize("family",
                         [models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN])
@pytest.mark.parametrize("sparse", [False, True])
def test_train_matches_frozen_allocating_loop(rng, optimizer, family, sparse):
    # 40 records in batches of 8 for 10 epochs: 50 steps (DP-SGD: 50
    # Poisson batches). The reference takes each batch as X[idx]; train
    # slices row ranges of a once-per-epoch permuted X, dense or CSR.
    spec, theta0, X, y = random_instance(rng, family, n=40, weight_decay=0.01)
    if sparse:
        X[rng.random(X.shape) < 0.5] = 0.0
        X = sp.csr_matrix(X)
    weights = rng.uniform(0, 1, 40)
    cfg = trainer.TrainConfig(optimizer, batch_size=8, epochs=10, seed=3,
                              **OPTIMIZER_CONFIGS[optimizer])
    # DP-SGD takes no weights
    for w in (None,) if optimizer == trainer.DP_SGD else (None, weights):
        _assert_matches_frozen_loop(spec, theta0, X, y, cfg, w)


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZER_CONFIGS))
def test_a_dense_x_trains_like_its_csr_matrix(rng, optimizer):
    # train converts a dense X to CSR on entry: the same epochs' thetas
    # (train's alone, through its sink), final theta and losses under ==
    spec, theta0, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=40,
                                         weight_decay=0.01)
    X[rng.random(X.shape) < 0.5] = 0.0
    weights = None if optimizer == trainer.DP_SGD else rng.uniform(0, 1, 40)
    cfg = trainer.TrainConfig(optimizer, batch_size=8, epochs=3, seed=3,
                              **OPTIMIZER_CONFIGS[optimizer])
    runs = []
    for features in (X, sp.csr_matrix(X)):
        seen = []
        theta, losses = _fit(spec, theta0, features, y, cfg, weights,
                             lambda values: seen.append(values.copy()))
        runs.append((seen, theta, losses))
    (dense_seen, dense_theta, dense_losses), (seen, theta, losses) = runs
    np.testing.assert_array_equal(dense_seen, seen)
    assert _bits(dense_theta.values) == _bits(theta.values)
    assert dense_losses == losses


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_matches_frozen_loop(spec, theta0, X, y, cfg, weights=None,
                                sigmas=(DP_SIGMA, 0.0)):
    # each epoch's mean loss and the final theta equal the frozen loop's as
    # bits (NaN equals NaN), and so does each epoch's theta, seen through
    # train's sink; a DP-SGD config trains one sweep of sigmas, each sigma
    # held to its own loop
    if cfg.optimizer == trainer.DP_SGD:
        seen = [None for _ in sigmas]
        results = trainer.train_dp_sweep(spec, theta0, X, y, cfg, sigmas)
    else:
        sigmas, seen = [None], [[]]
        results = [trainer.train(
            spec, theta0, X, y, cfg, weights,
            lambda values: seen[0].append(values.copy()))]
    for (theta, losses), sigma, epochs in zip(results, sigmas, seen):
        want = _frozen_train(spec, theta0, X, y, cfg, weights, sigma)
        assert len(losses) == len(want) == cfg.epochs
        if epochs is not None:
            assert _bits(epochs) == _bits([values for values, _ in want])
        assert _bits(losses) == _bits([loss for _, loss in want])
        assert _bits(theta.values) == _bits(want[-1][0])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       optimizer=st.sampled_from([trainer.ADAPTIVE, trainer.SGD_CONSTANT]),
       family=st.sampled_from([models.SOFTMAX_LINEAR, models.MLP_1_HIDDEN]),
       n=st.integers(2, 24), batch_size=st.integers(1, 8),
       weight_decay=st.sampled_from([0.0, 0.01]))
def test_all_ones_weights_train_like_no_weights(seed, optimizer, family, n,
                                                batch_size, weight_decay):
    spec, theta0, X, y = random_instance(np.random.default_rng(seed), family,
                                         n=n, weight_decay=weight_decay)
    cfg = trainer.TrainConfig(optimizer, batch_size=min(batch_size, n),
                              epochs=3, seed=seed,
                              **OPTIMIZER_CONFIGS[optimizer])
    seen_a, seen_b = [], []
    a, losses_a = trainer.train(spec, theta0, X, y, cfg, np.ones(n),
                                lambda values: seen_a.append(values.copy()))
    b, losses_b = trainer.train(spec, theta0, X, y, cfg, None,
                                lambda values: seen_b.append(values.copy()))
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(seen_a, seen_b)
    np.testing.assert_array_equal(losses_a, losses_b)  # NaN equals NaN


@pytest.mark.parametrize("scale", [0.0, 0.7, 1.3])
def test_noise_drawn_in_place_equals_generator_normal(scale):
    # three draws in a row, into two alternating buffer sets as DP-SGD takes
    # them: alone, and among other scales, a duplicate and 0 included, each
    # scale's noise equal to Generator.normal from the same state, which
    # one draw advances; compared as bits, so the sign of a zero counts
    p = 1001
    for scales in ([scale], [0.7, scale, 0.0, scale]):
        got = np.random.default_rng(4)
        buffers = [[np.empty(p) for _ in scales] for _ in range(2)]
        for step in range(3):
            state = got.bit_generator.state
            drawn = trainer._draw_noise(got, scales, buffers[step % 2])
            assert drawn is buffers[step % 2]
            for s, noise in zip(scales, drawn):
                want = np.random.default_rng()
                want.bit_generator.state = state
                assert (noise.view(np.uint64)
                        == want.normal(0.0, s, p).view(np.uint64)).all()
            assert got.bit_generator.state == want.bit_generator.state


def test_dp_sgd_peak_memory_does_not_grow_with_epochs():
    # the sweep of one sigma holds one theta, whatever its epoch count
    spec, theta0, X, y = large_instance()
    peaks = [traced_peak(lambda: trainer.train_dp_sweep(
        spec, theta0, X, y,
        trainer.TrainConfig(trainer.DP_SGD, 0.1, 16, epochs, seed=1,
                            clip_norm=1.0), [1.1]))
             for epochs in (3, 30)]
    assert abs(peaks[1] - peaks[0]) <= 8 * spec.num_params


@pytest.mark.parametrize("optimizer", [trainer.ADAPTIVE,
                                       trainer.SGD_CONSTANT])
def test_shuffle_partition_epoch_allocates_less_than_one_w1_block(optimizer):
    # A second epoch permutes X and takes its steps. Its peak beyond what
    # the first left held stays below one W1-sized array: no step allocates
    # a p-sized product, so none depends on glibc's mmap threshold.
    spec = models.ModelSpec(models.MLP_1_HIDDEN, 2048, 5, 32, 0.01)
    X = sp.random(600, 2048, density=0.01, format="csr", random_state=2)
    y = np.random.default_rng(2).integers(0, 5, 600)
    weights = np.random.default_rng(3).uniform(0, 1, 600)
    cfg = trainer.TrainConfig(optimizer, batch_size=64, epochs=2, seed=1,
                              **OPTIMIZER_CONFIGS[optimizer])
    marks = []

    def sink(values):
        current, peak = tracemalloc.get_traced_memory()
        marks.append((current, peak))
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        trainer.train(spec, models.init_params(spec, 0), X, y, cfg, weights,
                      on_epoch=sink)
    finally:
        tracemalloc.stop()
    (held, _), (_, peak) = marks
    assert peak - held < 2048 * 32 * 8


def count_vectors_built(monkeypatch):
    """A list that gains an entry for every ParameterVector built from now."""
    built = []
    init = ParameterVector.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ParameterVector, "__init__", counting_init)
    return built


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZER_CONFIGS))
def test_train_builds_one_vector_per_call(rng, monkeypatch, optimizer):
    spec, theta0, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=24,
                                         weight_decay=0.01)
    cfg = trainer.TrainConfig(optimizer, batch_size=4, epochs=3, seed=2,
                              **OPTIMIZER_CONFIGS[optimizer])
    built = count_vectors_built(monkeypatch)
    _fit(spec, theta0, X, y, cfg, on_epoch=lambda values: None)
    assert len(built) == 1  # 18 steps (DP-SGD: 18 Poisson batches)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("bad_step, message", [
    (5, "epoch 1: .*non-finite"),
    (3, "epoch 0: .*non-finite")])
def test_non_finite_theta_raises_train_error_naming_the_epoch(
        rng, monkeypatch, weight_decay, bad_step, message):
    # One gradient entry turns inf at bad_step: a W row whose feature no
    # record has, so the logits never read the entry and no step's loss
    # sees it. Batches of 2 over 8 records: step 5 is in the middle of
    # epoch 1 and step 3 ends epoch 0; each is caught by the check at its
    # epoch's end, before the sink.
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8,
                                         weight_decay=weight_decay)
    X[:, 2] = 0.0
    X = sp.csr_matrix(X)
    unused = spec.layout().view(np.arange(spec.num_params), "W")[2, 0]
    gradient = models.gradient_into
    steps = []

    def gradient_going_inf(*args, **kwargs):
        norms, loglik = gradient(*args, **kwargs)
        steps.append(1)
        if len(steps) == bad_step + 1:
            args[5][unused] = np.inf  # the gradient, written into out
        return norms, loglik

    monkeypatch.setattr(models, "gradient_into", gradient_going_inf)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 2, 3, seed=0)
    seen = []
    # with decay, a step after the inf one updates that entry by inf - inf
    # until the epoch's check, which train raises from without a warning
    with pytest.raises(trainer.TrainError, match=message):
        trainer.train(spec, theta0, X, y, cfg,
                      on_epoch=lambda values: seen.append(values.copy()))
    # 4 steps an epoch: only the epochs before the failing one, all finite,
    # reached the sink
    assert len(seen) == bad_step // 4 and np.isfinite(seen).all()


@pytest.mark.floor_versions
def test_dp_sgd_with_empty_batches_matches_frozen_loop(rng):
    # batches of 1 over 12 records: q = 1/12, so about a third of the
    # Poisson batches are empty; each takes its noise step with a zero
    # gradient, and adds nothing to its epoch's loss
    spec, theta0, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=12)
    cfg = trainer.TrainConfig(trainer.DP_SGD, batch_size=1, epochs=4, seed=8,
                              **OPTIMIZER_CONFIGS[trainer.DP_SGD])
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed).spawn(2)[0])
    sizes = [b.size for _ in range(cfg.epochs)
             for b in _poisson_batches(12, 1, shuffle_rng, 1 / 12)]
    assert 0 in sizes[:-1]  # a step follows an empty batch
    _assert_matches_frozen_loop(spec, theta0, X, y, cfg)


class _FailingDraws:
    """A Generator whose normal draws raise, naming the thread they ran on."""

    def __init__(self, rng, threads):
        self._rng = rng
        self._threads = threads

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, *args, **kwargs):
        self._threads.append(threading.current_thread())
        raise RuntimeError("noise draw failed")


def _non_finite_at(monkeypatch, spec, calls, kind="theta"):
    # the given gradient_into calls (0-based) go non-finite: with kind
    # "theta" the gradient turns inf at a W entry whose feature no record
    # has, so only the epoch's theta check sees it; with "loss" the batch's
    # log-likelihoods turn NaN, and so does the step's loss
    unused = spec.layout().view(np.arange(spec.num_params), "W")[2, 0]
    gradient = models.gradient_into
    steps = []

    def gradient_going_non_finite(*args, **kwargs):
        norms, loglik = gradient(*args, **kwargs)
        steps.append(1)
        if len(steps) - 1 in calls:
            if kind == "theta":
                args[5][unused] = np.inf  # the gradient, written into out
            else:
                loglik = np.full_like(loglik, np.nan)
        return norms, loglik

    monkeypatch.setattr(models, "gradient_into", gradient_going_non_finite)


def _dp_instance(rng):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8)
    X[:, 2] = 0.0
    cfg = trainer.TrainConfig(trainer.DP_SGD, batch_size=2, epochs=3, seed=0,
                              **OPTIMIZER_CONFIGS[trainer.DP_SGD])
    return spec, theta0, sp.csr_matrix(X), y, cfg


def test_no_thread_outlives_dp_sgd_train(rng, monkeypatch):
    # each case in a sweep of one sigma and in one of three: trained to the
    # end; every model failing at its first step, so the sweep ends early;
    # and a noise draw raising on the worker
    spec, theta0, X, y, cfg = _dp_instance(rng)
    before = threading.enumerate()
    for sigmas in ([1.1], [1.1, 0.0, 1.1]):
        results = trainer.train_dp_sweep(spec, theta0, X, y, cfg, sigmas)
        assert not any(isinstance(r, trainer.TrainError) for r in results)
        assert threading.enumerate() == before

        with monkeypatch.context() as m:
            _non_finite_at(m, spec, set(range(len(sigmas))))  # first steps
            results = trainer.train_dp_sweep(spec, theta0, X, y, cfg, sigmas)
        assert all(isinstance(r, trainer.TrainError)
                   and str(r) == "epoch 0: theta has non-finite entries"
                   for r in results)
        assert threading.enumerate() == before

        threads = []
        default_rng = np.random.default_rng
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng",
                      lambda seed: _FailingDraws(default_rng(seed), threads))
            with pytest.raises(RuntimeError, match="noise draw failed"):
                trainer.train_dp_sweep(spec, theta0, X, y, cfg, sigmas)
        assert threads and threading.main_thread() not in threads
        assert threading.enumerate() == before


@pytest.mark.floor_versions
@settings(max_examples=40, deadline=None)
@given(sigmas=st.lists(st.sampled_from([0.0, 0.4, 1.1, 3.0]), min_size=1,
                       max_size=4),
       n=st.integers(4, 12), batch_size=st.integers(1, 4),
       epochs=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(sigmas=[1.1, 0.0, 1.1], n=12, batch_size=1, epochs=3, seed=8)
def test_dp_sweep_matches_frozen_loop_per_sigma(sigmas, n, batch_size,
                                                epochs, seed):
    # the lockstep sweep against the frozen loop run alone at each sigma:
    # each epoch's theta, the final theta and each epoch's loss as bits (NaN
    # for an epoch whose Poisson batches were all empty); sigma 0 and
    # duplicates drawn, and batches of 1 leave about a third of the batches
    # empty
    spec, theta0, X, y = random_instance(np.random.default_rng(seed),
                                         models.MLP_1_HIDDEN, n=n)
    cfg = trainer.TrainConfig(trainer.DP_SGD, 0.1, batch_size, epochs, seed,
                              clip_norm=0.5)
    _assert_matches_frozen_loop(spec, theta0, X, y, cfg, sigmas=sigmas)


@pytest.mark.parametrize("kind, message", [
    ("theta", r"epoch 0: theta has non-finite entries$"),
    ("loss", r"non-finite loss \S*nan\S* at epoch 0 batch \d+$")])
def test_a_sigma_gone_non_finite_fails_alone(rng, monkeypatch, kind,
                                             message):
    # the middle sigma's first gradient goes non-finite: it fails with the
    # message its one-sigma sweep gives, and the others keep the bits of
    # theirs
    spec, theta0, X, y, cfg = _dp_instance(rng)
    sigmas = [1.1, 0.5, 0.0]
    want = [trainer.train_dp_sweep(spec, theta0, X, y, cfg, [sigma])[0]
            for sigma in sigmas]
    with monkeypatch.context() as m:
        _non_finite_at(m, spec, {1}, kind)
        got = trainer.train_dp_sweep(spec, theta0, X, y, cfg, sigmas)
    with monkeypatch.context() as m:
        _non_finite_at(m, spec, {0}, kind)
        (alone,) = trainer.train_dp_sweep(spec, theta0, X, y, cfg,
                                          [sigmas[1]])
    for failed in (got[1], alone):
        assert isinstance(failed, trainer.TrainError)
        assert re.match(message, str(failed))
    for j in (0, 2):
        assert _bits(got[j][0].values) == _bits(want[j][0].values)
        assert _bits(got[j][1]) == _bits(want[j][1])


def test_dp_sweep_rejects_a_bad_sigma_or_optimizer(rng):
    spec, theta0, X, y, cfg = _dp_instance(rng)
    for bad in (-0.5, float("nan"), "1", True, None):
        with pytest.raises(trainer.TrainError,
                           match="noise multipliers >= 0, got %s"
                           % re.escape(repr(bad))):
            trainer.train_dp_sweep(spec, theta0, X, y, cfg, [1.1, bad])
    with pytest.raises(trainer.TrainError, match="dp-sgd config"):
        trainer.train_dp_sweep(
            spec, theta0, X, y,
            trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 2, 1, seed=0),
            [1.1])
    assert trainer.train_dp_sweep(spec, theta0, X, y, cfg, []) == []


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZER_CONFIGS))
def test_only_dp_sgd_starts_a_thread(rng, monkeypatch, optimizer):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8)
    started = []
    start = threading.Thread.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    cfg = trainer.TrainConfig(optimizer, batch_size=2, epochs=2, seed=0,
                              **OPTIMIZER_CONFIGS[optimizer])
    _fit(spec, theta0, X, y, cfg)
    assert len(started) == (optimizer == trainer.DP_SGD)


# Trains DP-SGD at p = 4096 * 3 + 3 = 12291 > 10000, where one dot of theta
# with itself runs on OpenBLAS's pool, and prints the BLAS thread count it
# ran at, each epoch's loss repr and the sha256 of the final theta.
_THREAD_COUNT_RUN = """
import hashlib, json
import numpy as np
import scipy.sparse as sp
from swagppm import blas, models, trainer
rng = np.random.default_rng(5)
spec = models.ModelSpec(models.SOFTMAX_LINEAR, 4096, 3, weight_decay=0.01)
theta0 = models.init_params(spec, 0).replace(rng.normal(0, 1, spec.num_params))
X = sp.random(200, 4096, density=0.01, format="csr", random_state=5)
y = rng.integers(0, 3, 200)
cfg = trainer.TrainConfig(trainer.DP_SGD, 0.1, 20, 3, seed=1, clip_norm=0.5)
((theta, losses),) = trainer.train_dp_sweep(spec, theta0, X, y, cfg, [1.1])
print(json.dumps([blas.threads(), [repr(loss) for loss in losses],
                  hashlib.sha256(theta.values.tobytes()).hexdigest()]))
"""


# OpenBLAS caps OPENBLAS_NUM_THREADS at the CPU count
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 or not blas._controls(),
                    reason="needs 2 CPUs and numpy's OpenBLAS thread "
                           "controls for a second BLAS thread")
def test_dp_sgd_losses_and_theta_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(models.__file__)))
    outputs = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        ran_at, *run = json.loads(subprocess.run(
            [sys.executable, "-c", _THREAD_COUNT_RUN], env=env, check=True,
            capture_output=True, text=True).stdout)
        assert ran_at == threads
        outputs.append(run)
    assert outputs[0] == outputs[1]


@pytest.mark.filterwarnings("error")
def test_a_non_finite_step_loss_raises_train_error_naming_its_batch(rng):
    # at learning rate 1e160 AdamW's decoupled decay overflows theta in the
    # second step, so the third step's logits are NaN; with every warning an
    # error, numpy's overflow on the way must not take the TrainError's place
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=20,
                                         weight_decay=0.01)
    cfg = trainer.TrainConfig(trainer.ADAPTIVE, 1e160, 4, 3, seed=0)
    with pytest.raises(trainer.TrainError,
                       match=r"^non-finite loss nan at epoch 0 batch 2$"):
        trainer.train(spec, theta0, X, y, cfg)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_dp_sgd_step_fails_its_sigma_with_train_error(rng):
    # at learning rate 1e308 the first noisy step overflows theta
    spec, theta0, X, y, cfg = _dp_instance(rng)
    cfg = trainer.TrainConfig(trainer.DP_SGD, 1e308, cfg.batch_size,
                              cfg.epochs, cfg.seed, clip_norm=cfg.clip_norm)
    (failed,) = trainer.train_dp_sweep(spec, theta0, X, y, cfg, [1.1])
    assert isinstance(failed, trainer.TrainError)
    assert re.match(r"(non-finite loss nan at epoch 0 batch \d+"
                    r"|epoch 0: theta has non-finite entries)$", str(failed))


def test_weights_of_the_wrong_length_raise_train_error(rng):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 2, 1, seed=0)
    with pytest.raises(trainer.TrainError,
                       match="^weights must cover every record in the view$"):
        trainer.train(spec, theta0, X, y, cfg, np.ones(X.shape[0] - 1))


def test_no_weight_decay_keeps_the_loss_of_a_theta_whose_norm_overflows(rng):
    # SGD at learning rate 1e155 takes theta to about 1e155: finite, but its
    # ||theta||^2 overflows, and 0.5 * 0 * inf would make every loss NaN
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=20)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 1e155, 4, 3, seed=0)
    theta, losses = trainer.train(spec, theta0, X, y, cfg)
    assert np.abs(theta.values).max() > 1e154
    assert np.isfinite(losses).all()
    assert models.decay_penalty(spec, theta.values) == 0.0
