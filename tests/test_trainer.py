import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from swagppm import models, trainer
from swagppm.params import ParameterVector

from conftest import random_instance


def separable_2class():
    spec = models.ModelSpec(models.SOFTMAX_LINEAR, 1, 2)
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    theta0 = ParameterVector(np.zeros(spec.num_params), spec.layout())
    return spec, theta0, X, y


def test_sgd_loss_non_increasing():
    spec, theta0, X, y = separable_2class()
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 4, 20, seed=0)
    _, snaps = trainer.train(spec, theta0, X, y, cfg)
    losses = [s.mean_train_loss for s in snaps]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_zero_epochs_identity():
    spec, theta0, X, y = separable_2class()
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 4, 0, seed=0)
    theta, snaps = trainer.train(spec, theta0, X, y, cfg)
    assert snaps == []
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
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 4, 1, seed=5)
    theta, snaps = trainer.train(spec, theta0, X, y, cfg)
    assert len(snaps) == 1
    np.testing.assert_array_equal(snaps[0].theta.values, theta.values)


def test_batch_size_exceeds_dataset(rng):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=4)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 10, 1, seed=5)
    with pytest.raises(trainer.TrainError):
        trainer.train(spec, theta0, X, y, cfg)


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


def _one_full_batch_dp_step(spec, theta0, X, y, clip_norm, noise_multiplier,
                            lr, seed):
    # batch_size n makes q = 1: one epoch is one step on every record
    cfg = trainer.TrainConfig(trainer.DP_SGD, lr, X.shape[0], 1, seed=seed,
                              clip_norm=clip_norm,
                              noise_multiplier=noise_multiplier)
    theta, _ = trainer.train(spec, theta0, X, y, cfg)
    return theta


def test_dp_sgd_step_degenerates_to_sgd(rng):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=6)
    stepped = _one_full_batch_dp_step(spec, theta0, X, y, clip_norm=1e9,
                                      noise_multiplier=0.0, lr=0.1, seed=1)
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
                                 clip_norm=1e12, noise_multiplier=0.0)
    sgd_cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, n, 3, seed=11)
    a, _ = trainer.train(spec, theta0, X, y, dp_cfg)
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


def test_dp_sgd_config_validation():
    with pytest.raises(trainer.TrainError):
        trainer.TrainConfig(trainer.DP_SGD, 0.1, 4, 1, seed=0)


@pytest.mark.parametrize("fields", [
    {"learning_rate": None}, {"learning_rate": "0.1"},
    {"learning_rate": float("nan")}, {"batch_size": 3.5},
    {"batch_size": "4"}, {"batch_size": None}, {"epochs": 2.0},
    {"epochs": None}, {"optimizer": trainer.DP_SGD, "clip_norm": "1"},
    {"optimizer": trainer.DP_SGD, "noise_multiplier": "0"},
    {"batch_size": True}, {"epochs": True}, {"learning_rate": True},
    {"optimizer": trainer.DP_SGD, "clip_norm": True},
    {"optimizer": trainer.DP_SGD, "noise_multiplier": True},
])
def test_config_of_a_wrong_type_raises_train_error(fields):
    args = dict(optimizer=trainer.DP_SGD, learning_rate=0.1, batch_size=4,
                epochs=1, seed=0, clip_norm=1.0, noise_multiplier=0.0)
    trainer.TrainConfig(**args)
    with pytest.raises(trainer.TrainError):
        trainer.TrainConfig(**dict(args, **fields))


def _frozen_train(spec, theta0, X, y, config, weights=None):
    # Reference: train as it was before its steps reused buffers: the loss
    # from a separate mean_nll pass, then allocating AdamW, SGD and DP-SGD
    # updates, with weight decay spec.weight_decay and no decay in DP-SGD.
    # Returns the parameters and the mean loss after each epoch.
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
            if idx.size == 0:
                continue
            Xb, yb = X[idx], y[idx]
            wb = None if weights is None else weights[idx]
            cur = ParameterVector(theta, theta0.layout)
            loss_sum += models.mean_nll(spec, cur, Xb, yb, wb) * idx.size
            count += idx.size
            if c.optimizer == trainer.DP_SGD:
                g, _ = models.clipped_gradient_sum(spec, cur, Xb, yb,
                                                   c.clip_norm)
                noise = noise_rng.normal(0.0, c.noise_multiplier * c.clip_norm,
                                         size=theta.size)
                theta = theta - c.learning_rate * (g.values + noise) \
                    / c.batch_size
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
        out.append((theta, loss_sum / count))
    return out


OPTIMIZER_CONFIGS = {
    trainer.ADAPTIVE: dict(learning_rate=0.05),
    trainer.SGD_CONSTANT: dict(learning_rate=0.1),
    trainer.DP_SGD: dict(learning_rate=0.1, clip_norm=0.5,
                         noise_multiplier=1.1),
}


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
    for w in (None, weights):
        _, snaps = trainer.train(spec, theta0, X, y, cfg, w)
        want = _frozen_train(spec, theta0, X, y, cfg, w)
        assert len(snaps) == len(want) == 10
        for snap, (values, loss) in zip(snaps, want):
            np.testing.assert_array_equal(snap.theta.values, values)
            assert snap.mean_train_loss == loss


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       optimizer=st.sampled_from(sorted(OPTIMIZER_CONFIGS)),
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
    a, snaps_a = trainer.train(spec, theta0, X, y, cfg, np.ones(n))
    b, snaps_b = trainer.train(spec, theta0, X, y, cfg, None)
    np.testing.assert_array_equal(a.values, b.values)
    for sa, sb in zip(snaps_a, snaps_b):
        np.testing.assert_array_equal(sa.theta.values, sb.theta.values)
        assert sa.mean_train_loss == sb.mean_train_loss or (
            np.isnan(sa.mean_train_loss) and np.isnan(sb.mean_train_loss))


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
def test_train_builds_one_vector_per_epoch(rng, monkeypatch, optimizer):
    spec, theta0, X, y = random_instance(rng, models.MLP_1_HIDDEN, n=24,
                                         weight_decay=0.01)
    cfg = trainer.TrainConfig(optimizer, batch_size=4, epochs=3, seed=2,
                              **OPTIMIZER_CONFIGS[optimizer])
    built = count_vectors_built(monkeypatch)
    theta, snaps = trainer.train(spec, theta0, X, y, cfg)
    assert len(built) == 3  # 18 steps (DP-SGD: 18 Poisson batches)
    assert theta is snaps[-1].theta


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("bad_step, message", [
    (5, "non-finite loss .* at epoch 1 batch 2"),
    (3, "epoch 0: .*non-finite")])
def test_non_finite_theta_raises_train_error_naming_the_epoch(
        rng, monkeypatch, weight_decay, bad_step, message):
    # One gradient entry turns inf at bad_step: a W row whose feature no
    # record has, so the logits never read the entry and only the ||theta||^2
    # term of the loss sees it. Batches of 2 over 8 records: step 5 is in
    # the middle of epoch 1 and caught by the next step's loss, step 3 ends
    # epoch 0 and is caught by its snapshot.
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8,
                                         weight_decay=weight_decay)
    X[:, 2] = 0.0
    X = sp.csr_matrix(X)
    unused = spec.layout().view(np.arange(spec.num_params), "W")[2, 0]
    gradient = models.weighted_gradient_loglik
    steps = []

    def gradient_going_inf(*args):
        grad, loglik = gradient(*args)
        steps.append(1)
        if len(steps) == bad_step + 1:
            grad[unused] = np.inf
        return grad, loglik

    monkeypatch.setattr(models, "weighted_gradient_loglik",
                        gradient_going_inf)
    cfg = trainer.TrainConfig(trainer.SGD_CONSTANT, 0.1, 2, 3, seed=0)
    with pytest.raises(trainer.TrainError, match=message):
        trainer.train(spec, theta0, X, y, cfg)
