import json
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings, strategies as st

from swagppm import blas, models, pipeline

# CI selects this profile (HYPOTHESIS_PROFILE=ci) so that a failing property
# replays the same examples on every run and prints its reproduction blob.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def set_blas_threads():
    """OpenBLAS's thread-count setter; the count the process had is
    restored after the test."""
    controls = blas._controls()
    if not controls:
        pytest.skip("numpy's OpenBLAS thread controls were not found")
    get, set_ = controls
    before = get()
    yield set_
    set_(before)


def tiny_config():
    """The default config at 400 records, 6 classes and 256 features, with
    short phases."""
    cfg = pipeline.load_config({"seed": 7})
    cfg["data"]["synthetic"].update(num_classes=6, total_records=400,
                                    vocab_size=300, feature_dim=256)
    cfg["phases"].update(finetune_epochs=3, swag_epochs=6, draws=40,
                         batch_size=32)
    cfg["dp_sgd"].update(epochs=5, batch_size=64)
    cfg["nonprivate"].update(epochs=5)
    return cfg


def within_a_minute(fn):
    """Run fn on a thread of its own, which must end within a minute (a
    lane left waiting for the stream would hang the fold's pool join); the
    exception fn raised, or None."""
    caught = []

    def run():
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - handed to the test
            caught.append(e)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(60)
    assert not thread.is_alive()
    return caught[0] if caught else None


def random_instance(rng, family, input_dim=5, num_classes=3, hidden_dim=4,
                    n=6, weight_decay=0.0):
    """Small dense problem instance for gradient checks."""
    hidden = hidden_dim if family == models.MLP_1_HIDDEN else 0
    spec = models.ModelSpec(family, input_dim, num_classes, hidden,
                            weight_decay)
    theta = spec.layout()
    values = rng.normal(0, 0.5, spec.num_params)
    from swagppm.params import ParameterVector
    theta = ParameterVector(values, spec.layout())
    X = rng.normal(0, 1.0, (n, input_dim))
    y = rng.integers(0, num_classes, n)
    return spec, theta, X, y


def large_instance(n=64):
    """A softmax-linear problem at p = 2499 * 20 + 20 = 50000 over a sparse
    X of n records."""
    spec = models.ModelSpec(models.SOFTMAX_LINEAR, 2499, 20, weight_decay=1e-4)
    X = sp.random(n, 2499, density=0.01, format="csr", random_state=3)
    y = np.random.default_rng(3).integers(0, 20, n)
    return spec, models.init_params(spec, 0), X, y


def traced_peak(fn):
    """The peak of tracemalloc's traced bytes while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def finite_difference_gradient(f, values, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.zeros_like(values)
    for i in range(values.size):
        up = values.copy()
        dn = values.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2 * h)
    return grad


def frozen_frame(magic, head, payload):
    """Reference: the binary file frame as checkpoints and moment files were
    written before one writer served both: magic, header length,
    sorted-key JSON header, payload bytes."""
    blob = json.dumps(head, sort_keys=True).encode("utf-8")
    return magic + struct.pack("<Q", len(blob)) + blob + payload


# Shape entries a loader must refuse: negative, more values than any file
# holds, and not integers at all. Each shape they go into has only dims
# >= 1 beside them, so 2 ** 40 is never multiplied down to 0.
BAD_DIMS = st.one_of(st.integers(max_value=-1), st.just(2 ** 40),
                     st.floats(), st.text(max_size=3))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
