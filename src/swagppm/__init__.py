"""Differentially private classifier release via weighted posterior draws.

Subpackages cover the model families and gradients (`models`), training
loops including DP-SGD (`trainer`), the stochastic-weight-averaging
posterior (`swag`), risk weighting and sensitivity (`ppm`), Renyi-DP
accounting (`accountant`), imbalanced data tooling (`data`), F1 metrics
(`metrics`), the CSR feature format and its kernels (`csr`), and the
end-to-end pipeline (`pipeline`).
"""

from . import (accountant, csr, data, metrics, models, params, pipeline, ppm,
               swag, trainer)

__all__ = ["accountant", "csr", "data", "metrics", "models", "params",
           "pipeline", "ppm", "swag", "trainer"]

__version__ = "0.1.0"
