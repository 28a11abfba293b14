"""Dense tensor math: deterministic matmul, activations, seeded RNG, finite differences.

Everything downstream (model, routing, training) builds on these primitives.
Arrays are plain numpy ndarrays, float32 by default; every function preserves
the dtype of its inputs so the whole stack can be run in float64 for gradient
checks without touching a different code path.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

F32 = np.float32
F64 = np.float64

# Reduction block width for matmul. Fixing it (and the ascending block order)
# pins the float summation order, so results are bit-identical across runs
# for a given thread count.
MATMUL_BLOCK = 64

# tanh-approximation constant sqrt(2/pi)
GELU_COEF = 0.7978845608
GELU_CUBIC = 0.044715

ACTIVATIONS = ("relu", "gelu_tanh", "silu")


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def matmul(a: np.ndarray, b: np.ndarray, threads: int = 1) -> np.ndarray:
    """C = A @ B with a fixed 64-wide reduction blocking.

    Operands are 2-D, or stacked (..., m, k) @ (..., k, n) with equal leading
    shapes, one product per leading index. The K dimension is processed in
    ascending 64-column blocks, each block contribution accumulated in order;
    the m rows (axis -2) may be statically partitioned across `threads`
    workers (row results are independent, so threading does not change the
    numbers). Products with fewer than 2 * MATMUL_BLOCK rows run on the
    calling thread; leading axes are never split.
    """
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul expects 2-D or equally stacked operands, got "
                         f"{a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    m, k = a.shape[-2:]
    out = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.result_type(a, b))

    def fill_rows(r0: int, r1: int) -> None:
        acc = out[..., r0:r1, :]
        for k0 in range(0, k, MATMUL_BLOCK):
            k1 = min(k0 + MATMUL_BLOCK, k)
            acc += a[..., r0:r1, k0:k1] @ b[..., k0:k1, :]

    if threads <= 1 or m < 2 * MATMUL_BLOCK:
        fill_rows(0, m)
        return out

    # Static row partition: ceil-even chunks, one per worker, in order.
    chunk = -(-m // threads)
    spans = [(r, min(r + chunk, m)) for r in range(0, m, chunk)]
    with ThreadPoolExecutor(max_workers=len(spans)) as pool:
        list(pool.map(lambda s: fill_rows(*s), spans))
    return out


def matmul_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference path. Only sensible for small shapes."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"bad operands: {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.result_type(a, b))
    for i in range(m):
        for j in range(n):
            s = out.dtype.type(0)
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(F64)
    # exp(-x) where x >= 0 and exp(x) below (NaN keeps its sign): never overflows
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def activation(h: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise activation. kind is one of relu | gelu_tanh | silu."""
    if kind == "relu":
        return np.maximum(h, 0)
    if kind == "silu":
        return h * sigmoid(h)
    if kind == "gelu_tanh":
        u = GELU_COEF * (h + GELU_CUBIC * h * h * h)
        return 0.5 * h * (1.0 + np.tanh(u))
    raise ValueError(f"unknown activation kind {kind!r}")


def activation_grad(h: np.ndarray, kind: str) -> np.ndarray:
    """d activation / dh, evaluated elementwise at h."""
    if kind == "relu":
        return (h > 0).astype(h.dtype)
    if kind == "silu":
        s = sigmoid(h)
        return s * (1.0 + h * (1.0 - s))
    if kind == "gelu_tanh":
        u = GELU_COEF * (h + GELU_CUBIC * h * h * h)
        t = np.tanh(u)
        du = GELU_COEF * (1.0 + 3.0 * GELU_CUBIC * h * h)
        return 0.5 * (1.0 + t) + 0.5 * h * (1.0 - t * t) * du
    raise ValueError(f"unknown activation kind {kind!r}")


class Rng:
    """Seeded counter-based generator (Philox) with named substreams.

    Identical seed gives an identical stream on every platform. `split`
    derives an independent child stream from a label, so modules can pull
    randomness in any order without perturbing each other.
    """

    algorithm = "philox4x64"

    def __init__(self, seed: int):
        self.seed = int(seed) & (2**64 - 1)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def split(self, tag: str) -> "Rng":
        digest = hashlib.sha256(f"{self.seed}/{tag}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def normal(self, shape, std: float = 1.0, dtype=F32) -> np.ndarray:
        return (self._gen.standard_normal(shape) * std).astype(dtype)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


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
