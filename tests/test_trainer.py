import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from swagppm import models, trainer
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


def test_dp_sgd_with_weights_raises(rng):
    # the clipped gradient has no weights, so DP-SGD refuses them
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8)
    cfg = trainer.TrainConfig(trainer.DP_SGD, 0.1, 4, 1, seed=5,
                              clip_norm=1.0, noise_multiplier=1.0)
    with pytest.raises(trainer.TrainError, match="dp-sgd takes no weights"):
        trainer.train(spec, theta0, X, y, cfg, np.ones(8))


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
    # DP-SGD takes no weights
    for w in (None,) if optimizer == trainer.DP_SGD else (None, weights):
        _assert_matches_frozen_loop(spec, theta0, X, y, cfg, w)


def _assert_matches_frozen_loop(spec, theta0, X, y, cfg, weights=None):
    # each epoch's theta, through the sink, and its mean loss equal the
    # frozen loop's under ==, and the final theta is the last epoch's
    seen = []
    theta, losses = trainer.train(spec, theta0, X, y, cfg, weights,
                                  lambda values: seen.append(values.copy()))
    want = _frozen_train(spec, theta0, X, y, cfg, weights)
    assert len(seen) == len(losses) == len(want) == cfg.epochs
    for values, loss, (want_values, want_loss) in zip(seen, losses, want):
        np.testing.assert_array_equal(values, want_values)
        assert loss == want_loss
    np.testing.assert_array_equal(theta.values, want[-1][0])


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
    # three draws in a row, into two alternating buffers as DP-SGD takes
    # them; compared as bits, so the sign of a zero counts
    p = 1001
    want = np.random.default_rng(4)
    got = np.random.default_rng(4)
    buffers = [np.empty(p), np.empty(p)]
    for step in range(3):
        drawn = trainer._draw_noise(got, scale, buffers[step % 2])
        assert drawn is buffers[step % 2]
        assert (drawn.view(np.uint64)
                == want.normal(0.0, scale, p).view(np.uint64)).all()


def test_dp_sgd_peak_memory_does_not_grow_with_epochs():
    # train holds one theta, whatever its epoch count
    spec, theta0, X, y = large_instance()
    peaks = [traced_peak(lambda: trainer.train(
        spec, theta0, X, y,
        trainer.TrainConfig(trainer.DP_SGD, 0.1, 16, epochs, seed=1,
                            clip_norm=1.0, noise_multiplier=1.1)))
             for epochs in (3, 30)]
    assert abs(peaks[1] - peaks[0]) <= 8 * spec.num_params


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
    trainer.train(spec, theta0, X, y, cfg, on_epoch=lambda values: None)
    assert len(built) == 1  # 18 steps (DP-SGD: 18 Poisson batches)


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
    # epoch 0 and is caught by the check at its end, before the sink.
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
    seen = []
    with pytest.raises(trainer.TrainError, match=message):
        trainer.train(spec, theta0, X, y, cfg,
                      on_epoch=lambda values: seen.append(values.copy()))
    # 4 steps an epoch: only the epochs before the failing one, all finite,
    # reached the sink
    assert len(seen) == bad_step // 4 and np.isfinite(seen).all()


def test_dp_sgd_with_empty_batches_matches_frozen_loop(rng):
    # batches of 1 over 12 records: q = 1/12, so about a third of the
    # Poisson batches are empty and take no noise draw, while the draw
    # made ahead for the next step waits across them
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


def _inf_at_first_step(monkeypatch, spec):
    # the non-finite setup of the test below: the first step's gradient
    # turns inf at a W entry whose feature no record has
    unused = spec.layout().view(np.arange(spec.num_params), "W")[2, 0]
    gradient = models.clipped_gradient_loglik
    steps = []

    def gradient_going_inf(*args):
        grad, norms, loglik = gradient(*args)
        steps.append(1)
        if len(steps) == 1:
            grad[unused] = np.inf
        return grad, norms, loglik

    monkeypatch.setattr(models, "clipped_gradient_loglik", gradient_going_inf)


def test_no_thread_outlives_dp_sgd_train(rng, monkeypatch):
    spec, theta0, X, y = random_instance(rng, models.SOFTMAX_LINEAR, n=8)
    X[:, 2] = 0.0
    X = sp.csr_matrix(X)
    cfg = trainer.TrainConfig(trainer.DP_SGD, batch_size=2, epochs=3, seed=0,
                              **OPTIMIZER_CONFIGS[trainer.DP_SGD])
    before = threading.enumerate()
    trainer.train(spec, theta0, X, y, cfg)
    assert threading.enumerate() == before

    with monkeypatch.context() as m:
        _inf_at_first_step(m, spec)
        with pytest.raises(trainer.TrainError,
                           match="non-finite loss .* at epoch 0 batch"):
            trainer.train(spec, theta0, X, y, cfg)
    assert threading.enumerate() == before

    threads = []
    default_rng = np.random.default_rng
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng",
                  lambda seed: _FailingDraws(default_rng(seed), threads))
        with pytest.raises(RuntimeError, match="noise draw failed"):
            trainer.train(spec, theta0, X, y, cfg)
    assert threads and threading.main_thread() not in threads
    assert threading.enumerate() == before


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
    trainer.train(spec, theta0, X, y, cfg)
    assert len(started) == (optimizer == trainer.DP_SGD)


# Trains DP-SGD at p = 4096 * 3 + 3 = 12291 > 10000, where one dot of theta
# with itself runs on OpenBLAS's pool, and prints each epoch's loss repr and
# the sha256 of the final theta.
_THREAD_COUNT_RUN = """
import hashlib, json
import numpy as np
import scipy.sparse as sp
from swagppm import models, trainer
rng = np.random.default_rng(5)
spec = models.ModelSpec(models.SOFTMAX_LINEAR, 4096, 3, weight_decay=0.01)
theta0 = models.init_params(spec, 0).replace(rng.normal(0, 1, spec.num_params))
X = sp.random(200, 4096, density=0.01, format="csr", random_state=5)
y = rng.integers(0, 3, 200)
cfg = trainer.TrainConfig(trainer.DP_SGD, 0.1, 20, 3, seed=1, clip_norm=0.5,
                          noise_multiplier=1.1)
theta, losses = trainer.train(spec, theta0, X, y, cfg)
print(json.dumps([[repr(loss) for loss in losses],
                  hashlib.sha256(theta.values.tobytes()).hexdigest()]))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 CPUs for a second BLAS thread")
def test_dp_sgd_losses_and_theta_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(models.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        outputs.append(subprocess.run(
            [sys.executable, "-c", _THREAD_COUNT_RUN], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]
