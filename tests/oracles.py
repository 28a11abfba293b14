"""Test-only references: a central-difference gradient, the union
sparsity of every token prefix, the masked-dense discrete FFN, the greedy
balanced assignment loop, a model's parameter count and the score mass
near tau."""

import math
from typing import Callable

import numpy as np

from moefy.autograd import Tensor
from moefy.model import ModelConfig, ffn_hidden, ffn_out, param_shapes
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


def greedy_balanced_assign_loop(dist: np.ndarray, capacity: int) -> np.ndarray:
    """The array-indexing loop `grouping._greedy_balanced_assign` replaced,
    kept as its reference: cheapest (neuron, centroid) pairs first, ties by
    lower neuron index, then lower centroid index."""
    d_ffn, n_experts = dist.shape
    order = np.argsort(dist.ravel(), kind="stable")
    assignment = np.full(d_ffn, -1, dtype=np.int64)
    room = np.full(n_experts, capacity, dtype=np.int64)
    placed = 0
    for flat in order:
        neuron, expert = divmod(int(flat), n_experts)
        if assignment[neuron] >= 0 or room[expert] == 0:
            continue
        assignment[neuron] = expert
        room[expert] -= 1
        placed += 1
        if placed == d_ffn:
            break
    return assignment


def param_count(cfg: ModelConfig) -> int:
    """Element count of the `param_shapes` table."""
    return sum(math.prod(shape) for shape in param_shapes(cfg).values())


def near_tau_fraction(scores: np.ndarray, tau: float, halfwidth: float = 0.1) -> float:
    """Mass of scores inside (tau - halfwidth, tau + halfwidth)."""
    return float(((scores > tau - halfwidth) & (scores < tau + halfwidth)).mean())
