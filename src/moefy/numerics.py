"""Dense tensor math: K-blocked matmul, activations, seeded RNG.

Everything downstream (model, routing, training) builds on these primitives.
Arrays are plain numpy ndarrays, float32 by default; every function preserves
the dtype of its inputs so the whole stack can be run in float64 for gradient
checks without touching a different code path.

Buffer rule for the elementwise kernels: a kernel writes only arrays it
allocated itself (through `out=` and in-place ufuncs), never its inputs, and
it keeps the operand order of the expression its docstring writes out, so
the result is byte-identical to evaluating that expression in numpy.

`matmul` keeps a 64-wide K blocking only because criterion 7's dense
reference is timed through it (see `matmul` and the criterion-7 `FOUND:` line
in CHANGES.md); the union kernel and its graph op call BLAS directly. Thread
counts belong to the BLAS: they are set by its environment variables before
the process starts, and `blas_threads` reports that setting for run records.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

F32 = np.float32
F64 = np.float64

# Reduction block width for matmul; `matmul` says why the blocking stays.
MATMUL_BLOCK = 64

# tanh-approximation constant sqrt(2/pi)
GELU_COEF = 0.7978845608
GELU_CUBIC = 0.044715

ACTIVATIONS = ("relu", "gelu_tanh", "silu")

# `activation` and `activation_grad` run a 2-D input taller than this in
# blocks of this many rows, so their temporaries stay block-sized
ACT_BLOCK_ROWS = 256


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C = A @ B with a fixed 64-wide reduction blocking.

    Operands are 2-D, or stacked (..., m, k) @ (..., k, n) with equal leading
    shapes, one product per leading index. The K dimension is processed in
    ascending 64-column blocks, each block contribution accumulated in order.

    The blocking buys no determinism that BLAS lacks at a fixed thread count;
    it stays because criterion 7 (`sparse_exec.bench`) times its dense
    reference through this function, and against plain `np.matmul` the gather
    kernel misses that criterion's limits (see the criterion-7 `FOUND:` line
    in CHANGES.md). It goes when a gather kernel beats plain BLAS.
    """
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul expects 2-D or equally stacked operands, got "
                         f"{a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    k = a.shape[-1]
    out = a[..., :MATMUL_BLOCK] @ b[..., :MATMUL_BLOCK, :]
    if k > MATMUL_BLOCK:
        part = np.empty_like(out)
        for k0 in range(MATMUL_BLOCK, k, MATMUL_BLOCK):
            np.matmul(a[..., k0:k0 + MATMUL_BLOCK], b[..., k0:k0 + MATMUL_BLOCK, :], out=part)
            out += part
    return out


def blas_threads() -> str:
    """The BLAS thread setting in the environment, for run records.

    OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else "default" (the BLAS
    picks its own count, usually one thread per core). The BLAS reads these
    once when it loads, so set them before the process starts.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        val = os.environ.get(var)
        if val:
            return val
    return "default"


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(F64)
    # exp(-x) where x >= 0 and exp(x) below (NaN keeps its sign): never overflows
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def _by_row_blocks(fn, h: np.ndarray, kind: str) -> np.ndarray:
    """`fn(h, kind)`, for a 2-D `h` taller than ACT_BLOCK_ROWS computed one
    row block at a time into one output laid out as `fn`'s own result is."""
    if h.ndim != 2 or h.shape[0] <= ACT_BLOCK_ROWS:
        return fn(h, kind)
    first = fn(h[:ACT_BLOCK_ROWS], kind)
    out = np.empty_like(h, dtype=first.dtype)
    out[:ACT_BLOCK_ROWS] = first
    for r in range(ACT_BLOCK_ROWS, h.shape[0], ACT_BLOCK_ROWS):
        out[r:r + ACT_BLOCK_ROWS] = fn(h[r:r + ACT_BLOCK_ROWS], kind)
    return out


def activation(h: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise activation. kind is one of relu | gelu_tanh | silu.

    relu is max(h, 0), silu is h * sigmoid(h), and gelu_tanh is
    0.5 * h * (1 + tanh(GELU_COEF * (h + GELU_CUBIC * h * h * h))).
    """
    return _by_row_blocks(_activation, h, kind)


def _activation(h: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(h, 0)
    if kind == "silu":
        s = sigmoid(h)
        return np.multiply(h, s, out=s)
    if kind == "gelu_tanh":
        t = _gelu_inner(h)
        np.tanh(t, out=t)
        np.add(1.0, t, out=t)
        y = np.multiply(0.5, h)
        return np.multiply(y, t, out=y)
    raise ValueError(f"unknown activation kind {kind!r}")


def _gelu_inner(h: np.ndarray) -> np.ndarray:
    """GELU_COEF * (h + GELU_CUBIC * h * h * h) in one new buffer."""
    u = np.multiply(GELU_CUBIC, h)
    np.multiply(u, h, out=u)
    np.multiply(u, h, out=u)
    np.add(h, u, out=u)
    return np.multiply(GELU_COEF, u, out=u)


def activation_grad(h: np.ndarray, kind: str) -> np.ndarray:
    """d activation / dh, evaluated elementwise at h.

    silu: s * (1 + h * (1 - s)) with s = sigmoid(h). gelu_tanh, with
    t = tanh(u) and du = GELU_COEF * (1 + 3 * GELU_CUBIC * h * h):
    0.5 * (1 + t) + 0.5 * h * (1 - t * t) * du.
    """
    return _by_row_blocks(_activation_grad, h, kind)


def _activation_grad(h: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (h > 0).astype(h.dtype)
    if kind == "silu":
        s = sigmoid(h)
        r = np.subtract(1.0, s)
        np.multiply(h, r, out=r)
        np.add(1.0, r, out=r)
        return np.multiply(s, r, out=r)
    if kind == "gelu_tanh":
        t = _gelu_inner(h)
        np.tanh(t, out=t)
        du = np.multiply(3.0 * GELU_CUBIC, h)
        np.multiply(du, h, out=du)
        np.add(1.0, du, out=du)
        np.multiply(GELU_COEF, du, out=du)
        r = np.multiply(t, t)
        np.subtract(1.0, r, out=r)
        y = np.multiply(0.5, h)
        np.multiply(y, r, out=y)
        np.multiply(y, du, out=y)
        np.add(1.0, t, out=t)
        np.multiply(0.5, t, out=t)
        return np.add(t, y, out=t)
    raise ValueError(f"unknown activation kind {kind!r}")


class Rng:
    """Seeded counter-based generator (Philox) with named substreams.

    Identical seed gives an identical stream on every platform. `split`
    derives an independent child stream from a label, so modules can pull
    randomness in any order without perturbing each other.
    """

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
