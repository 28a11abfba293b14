"""Test-only references: a central-difference gradient, the union
sparsity of every token prefix, and the masked-dense discrete FFN."""

from typing import Callable

import numpy as np

from moefy.autograd import Tensor
from moefy.model import ffn_hidden, ffn_out
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


def masked_dense_ffn(params, i: int, x: Tensor, mask: np.ndarray) -> Tensor:
    """Block i's FFN as a masked-dense graph: every hidden unit is computed,
    then the (T, n_experts) 0/1 mask scales each expert's units as a
    constant. The reference for the discrete FFN's graph op; run it in float64."""
    return ffn_out(params, i, ffn_hidden(params, i, x), Tensor(mask.astype(x.dtype)))
