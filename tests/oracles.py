"""Test-only references: a central-difference gradient and the union
sparsity of every token prefix."""

from typing import Callable

import numpy as np

from moefy.numerics import F64, NumericError


def finite_diff_grad(
    f: Callable[[np.ndarray], float], p: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Runs in float64; this is the oracle the training-module gradient tests
    compare against, so it deliberately knows nothing about the analytic path.
    """
    p = np.asarray(p, dtype=F64)
    grad = np.zeros_like(p)
    flat = p.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(p))
        flat[i] = orig - eps
        fm = float(f(p))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite loss at coordinate {i}: {fp}, {fm}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def prefix_union_sparsity(mask: np.ndarray) -> np.ndarray:
    """Union sparsity over token prefixes [0..m]; non-increasing in m."""
    if mask.shape[0] == 0:
        raise ValueError("empty batch")
    cum = np.maximum.accumulate(mask, axis=0)
    return 1.0 - cum.sum(axis=1) / mask.shape[1]
