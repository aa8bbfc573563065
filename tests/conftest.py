import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings, strategies as st

from swagppm import models

# CI selects this profile (HYPOTHESIS_PROFILE=ci) so that a failing property
# replays the same examples on every run and prints its reproduction blob.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
