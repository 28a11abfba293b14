"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each op records its parents and a closure that scatters the
output gradient back to them. The op set is what the program records (the
language model, the routed FFN paths and the three loss terms), plus `sum`,
which the float64 gradient checks reduce with. `+` and `*` never broadcast:
a bias rides in `matmul`, and attention (head split, scores, scale, causal
mask, softmax, context and head merge) is the one node `causal_attention`.

Gradients are exact. A constant Tensor (one that does not require grad)
receives none, so a constant 0/1 scale of `scale_blocks` passes no gradient.
Discrete expert selection in adaptation training is data in the same way:
it is the constant mask of the union-kernel op `sparse_exec.sparse_ffn_graph`,
and no gradient flows through the decision itself.

The tape is made of nodes, not of values. A Tensor that requires grad holds
its array and a small `_Node`: the gradient, the closure, the parents' nodes,
and the shape, dtype and memory order of a first gradient. A closure holds
only the arrays it reads (matmul and `*` their inputs, `act` and `square`
theirs, sigmoid and reciprocal their output, layernorm `xhat`, the inverse
deviation and the gain, attention its q, k and v and its softmax weights)
and writes into the parents' nodes, so nodes outlive values: a forward
value that no backward reads, such as an `+` output or attention's output,
is freed as soon as the forward drops its Tensor.

Backward consumes the tape: one backward per forward. As reverse mode
passes an inner node it drops that node's gradient, its closure (and with
it the arrays the closure saved) and its parent links, so gradients and
activations are freed as the walk moves down the graph. Leaves (parameters,
routers) keep `.grad`; inner nodes keep none. A second backward through a
consumed node raises `RuntimeError`.

Buffer rule for the ops: forward and backward write only arrays they
allocated themselves, never an input, `self.data` or a value a backward
closure still reads (such as layernorm's `xhat`), and they keep the operand
order of the plain numpy expression, so results are byte-identical to it.
"""

from __future__ import annotations

import contextlib
import math
from typing import Optional

import numpy as np

from . import numerics
from .numerics import NumericError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


def _spent(g=None):
    """The closure slot of a node that backward has already consumed."""
    raise RuntimeError("backward already ran through this graph; run the forward pass again")


class _Node:
    """The tape entry of a Tensor that requires grad; it holds no forward value.

    `backward` is None on a leaf. `axes` is None for a C-contiguous value,
    else the axis order, outermost first, in which `np.empty_like` would
    lay out a copy of it (by descending absolute stride; F order reversed).
    """

    __slots__ = ("grad", "backward", "parents", "shape", "dtype", "axes")

    def __init__(self, data: np.ndarray, backward=None, parents: tuple = ()):
        self.grad: Optional[np.ndarray] = None
        self.backward = backward
        self.parents = parents
        self.like(data)

    def like(self, data: np.ndarray) -> None:
        """Take the shape, dtype and memory order of a first gradient from `data`."""
        self.shape, self.dtype = data.shape, data.dtype
        if data.flags.c_contiguous:
            self.axes = None
        elif data.ndim > 1 and data.flags.f_contiguous:
            self.axes = tuple(range(data.ndim))[::-1]
        else:
            self.axes = tuple(sorted(range(data.ndim), key=lambda i: -abs(data.strides[i])))

    def empty(self) -> np.ndarray:
        """An uninitialised array laid out as `np.empty_like` of the value."""
        if self.axes is None:
            return np.empty(self.shape, self.dtype)
        return np.empty([self.shape[i] for i in self.axes],
                        self.dtype).transpose(np.argsort(self.axes))

    def accum(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add `g` to `.grad`. `fresh` says that nothing else holds `g` and that
        it has no -0.0 (a `numerics.matmul` result), so a first gradient of
        this dtype is kept as it is instead of copied."""
        if self.grad is None and fresh and g.dtype == self.dtype:
            self.grad = g
        elif self.grad is None:
            # adding 0.0 keeps the bytes of a zero-filled start (-0.0 becomes +0.0)
            self.grad = np.add(g, 0.0, out=self.empty())
        else:
            self.grad += g


class Tensor:
    """An array, plus its tape node when it requires grad."""

    __slots__ = ("_data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self._data = np.asarray(data)
        self._node = _Node(self._data) if requires_grad else None

    # -- graph plumbing ------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value) -> None:
        self._data = np.asarray(value)
        if self._node is not None:
            self._node.like(self._data)

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self._node is None else self._node.grad

    @property
    def shape(self):
        return self._data.shape

    @property
    def dtype(self):
        return self._data.dtype

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every leaf's `.grad`, consuming the tape.

        Each inner node's closure runs once, in reverse topological order;
        then the node's `.grad`, closure and parent links are dropped. Run
        the forward pass again before the next backward: reaching a consumed
        node raises `RuntimeError` before any gradient is written.
        """
        if self._data.size != 1:
            raise ShapeError("backward() expects a scalar loss")
        if not np.isfinite(self._data).all():
            raise NumericError(f"non-finite loss: {float(self._data)}")
        if self._node is None:
            raise RuntimeError("backward() from a Tensor that does not require grad")
        topo: list[_Node] = []
        seen: set[int] = set()
        stack = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.backward is _spent:
                _spent()
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._node.grad = np.ones_like(self._data)
        while topo:
            node = topo.pop()
            if node.backward is None:  # a leaf
                continue
            if node.grad is not None:
                node.backward(node.grad)
            node.grad, node.backward, node.parents = None, _spent, ()

    def item(self) -> float:
        return float(self._data)

    # -- op construction -----------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        """The op's output; on the tape when recording and a parent requires grad.

        `backward(g)` must reach the parents only through their nodes
        (`p._node`, captured when the op runs), never through the Tensors.
        """
        out = Tensor(data)
        if _grad_enabled:
            nodes = tuple(p._node for p in parents if p._node is not None)
            if nodes:
                out._node = _Node(out._data, backward, nodes)
        return out

    # -- arithmetic ----------------------------------------------------

    def _check_operand(self, other, op: str) -> None:
        if not isinstance(other, Tensor):
            raise TypeError(f"{op} takes a Tensor or a Python scalar, got {type(other).__name__}")
        if other._data.shape != self._data.shape:
            raise ShapeError(f"{op} needs equal shapes, got {self._data.shape} and {other._data.shape}")

    def __add__(self, other):
        sn = self._node
        if isinstance(other, (int, float)):
            return self._make(self._data + other, (self,), lambda g: sn.accum(g))
        self._check_operand(other, "+")
        on = other._node
        def back(g):
            if sn is not None:
                sn.accum(g)
            if on is not None:
                on.accum(g)
        return self._make(self._data + other._data, (self, other), back)

    def __mul__(self, other):
        sn = self._node
        if isinstance(other, (int, float)):
            return self._make(self._data * other, (self,), lambda g: sn.accum(g * other))
        self._check_operand(other, "*")
        on = other._node
        a = self._data if on is not None else None
        b = other._data if sn is not None else None
        def back(g):
            if sn is not None:
                sn.accum(g * b)
            if on is not None:
                on.accum(g * a)
        return self._make(self._data * other._data, (self, other), back)

    def matmul(self, other: "Tensor", bias: Optional["Tensor"] = None) -> "Tensor":
        """2-D or stacked (..., m, k) @ (..., k, n) product via numerics.matmul,
        plus an optional (n,) `bias` on every row of a 2-D product."""
        data = numerics.matmul(self._data, other._data)
        if bias is not None:
            if data.ndim != 2 or bias._data.shape != data.shape[1:]:
                raise ShapeError(f"bias {bias._data.shape} for a {data.shape} product")
            data += bias._data
        sn, on = self._node, other._node
        bn = bias._node if bias is not None else None
        a = self._data if on is not None else None
        b = other._data if sn is not None else None
        def back(g):
            if bn is not None:
                bn.accum(g.sum(axis=0))
            if sn is not None:
                sn.accum(numerics.matmul(g, b.swapaxes(-1, -2)), fresh=True)
            if on is not None:
                on.accum(numerics.matmul(a.swapaxes(-1, -2), g), fresh=True)
        return self._make(data, (self, other) if bias is None else (self, other, bias), back)

    # -- nonlinearities -------------------------------------------------

    def act(self, kind: str) -> "Tensor":
        sn, h = self._node, self._data
        return self._make(numerics.activation(h, kind), (self,),
                          lambda g: sn.accum(g * numerics.activation_grad(h, kind)))

    def sigmoid(self) -> "Tensor":
        sn, y = self._node, numerics.sigmoid(self._data)
        return self._make(y, (self,), lambda g: sn.accum(g * y * (1.0 - y)))

    def square(self) -> "Tensor":
        sn, x = self._node, self._data
        return self._make(x * x, (self,), lambda g: sn.accum(2.0 * x * g))

    def clamp_min(self, floor: float) -> "Tensor":
        sn, keep = self._node, self._data > floor
        data = np.maximum(self._data, floor)
        return self._make(data, (self,), lambda g: sn.accum(g * keep))

    def reciprocal(self) -> "Tensor":
        sn, inv = self._node, 1.0 / self._data
        return self._make(inv, (self,), lambda g: sn.accum(-g * inv * inv))

    # -- reductions ------------------------------------------------------

    def _fill_back(self, div: Optional[int] = None):
        """The backward of a full reduction: `g` (over `div`) in every entry,
        as `np.full_like` of the input lays it out."""
        sn = self._node
        def back(g):
            out = sn.empty()
            np.copyto(out, g if div is None else g / div, casting="unsafe")
            sn.accum(out)
        return back

    def mean(self) -> "Tensor":
        data = np.asarray(self._data.mean(), dtype=self._data.dtype)
        return self._make(data, (self,), self._fill_back(self._data.size))

    def sum(self) -> "Tensor":
        data = np.asarray(self._data.sum(), dtype=self._data.dtype)
        return self._make(data, (self,), self._fill_back())

    # -- structure -------------------------------------------------------

    def rows(self, idx: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup); duplicate indices accumulate."""
        sn, idx = self._node, np.asarray(idx)
        def back(g):
            acc = sn.empty()
            acc.fill(0)
            np.add.at(acc, idx, g)
            sn.accum(acc)
        return self._make(self._data[idx], (self,), back)

    def scale_blocks(self, scale: "Tensor") -> "Tensor":
        """(T, d) times a (T, m) scale: column j of `scale` multiplies the j-th
        block of d / m adjacent columns (expert score -> its neurons), read
        through a broadcast view rather than repeated to (T, d)."""
        t, d = self._data.shape
        m = scale._data.shape[1]
        if d % m != 0:
            raise ShapeError(f"{d} columns not divisible into {m} scale blocks")
        blocks = (t, m, d // m)
        s = scale._data[:, :, None]
        data = np.multiply(self._data.reshape(blocks), s).reshape(t, d)
        sn, cn = self._node, scale._node
        xb = self._data.reshape(blocks) if cn is not None else None
        s = s if sn is not None else None
        def back(g):
            gb = g.reshape(blocks)
            if sn is not None:
                sn.accum(np.multiply(gb, s).reshape(t, d))
            if cn is not None:
                cn.accum(np.multiply(gb, xb).sum(axis=2))
        return self._make(data, (self, scale), back)

    # -- fused layers ------------------------------------------------------

    def layernorm(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-5) -> "Tensor":
        # population mean and variance as np.mean/np.var compute them: a
        # pairwise sum, then a true divide by the intp row length
        x = self._data
        d = np.intp(x.shape[-1])
        mu = np.add.reduce(x, axis=-1, keepdims=True)
        np.true_divide(mu, d, out=mu)
        xhat = np.subtract(x, mu)
        inv = np.add.reduce(np.square(xhat), axis=-1, keepdims=True)
        np.true_divide(inv, d, out=inv)
        np.add(inv, eps, out=inv)
        np.sqrt(inv, out=inv)
        np.true_divide(1.0, inv, out=inv)
        np.multiply(xhat, inv, out=xhat)
        gd = gain._data
        data = np.multiply(gd, xhat)
        np.add(data, bias._data, out=data)
        sn, gn, bn = self._node, gain._node, bias._node
        def back(g):
            if gn is not None:
                gn.accum((g * xhat).sum(axis=0))
            if bn is not None:
                bn.accum(g.sum(axis=0))
            if sn is not None:
                # standard layernorm backward, population variance:
                # inv * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
                gxhat = np.multiply(g, gd)
                m1 = np.add.reduce(gxhat, axis=-1, keepdims=True)
                np.true_divide(m1, d, out=m1)
                r = np.multiply(gxhat, xhat)
                m2 = np.add.reduce(r, axis=-1, keepdims=True)
                np.true_divide(m2, d, out=m2)
                np.multiply(xhat, m2, out=r)
                np.subtract(gxhat, m1, out=gxhat)
                np.subtract(gxhat, r, out=gxhat)
                sn.accum(np.multiply(inv, gxhat, out=gxhat))
        return self._make(data, (self, gain, bias), back)

    def causal_attention(self, k: "Tensor", v: "Tensor", n_heads: int,
                         bias: np.ndarray) -> "Tensor":
        """Causal multi-head attention of (B*T, d) query rows `self` over key
        and value rows `k` and `v`, as (B*T, d) rows. T is read off the (T, T)
        `causal_bias`. Per sequence and head, with the head_dim columns of
        that head: softmax(q @ k^T * (1 / sqrt(head_dim)) + bias) @ v.

        One node for the whole chain: no per-head split, transposed key,
        scores or merge is a Tensor. Forward and backward run the chain's
        products on the same operands, so the bytes are those of the chain;
        a product whose K fits one `numerics.MATMUL_BLOCK` runs as the BLAS
        call that `numerics.matmul` makes. The row max is read down the key
        axis of a contiguous transposed copy of the scores: numpy reduces
        along the outer axis in one vectorised pass, but along the inner one
        runs a loop per row. The closure keeps the attention weights and the
        q, k and v arrays.
        """
        n, d = self._data.shape
        t = bias.shape[0]
        if k._data.shape != (n, d) or v._data.shape != (n, d):
            raise ShapeError(f"q {self._data.shape}, k {k._data.shape} and v {v._data.shape} "
                             f"must be equal (B*T, d) rows")
        if bias.shape != (t, t) or t == 0 or n % t or d % n_heads:
            raise ShapeError(f"bias {bias.shape} and {n_heads} heads for q rows {(n, d)}")
        b, hd = n // t, d // n_heads

        def heads(a):  # (B*T, d) -> a (B, H, T, head_dim) view
            return a.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3)

        def merge(a, axes):  # the one copy into (B*T, d) rows; +0.0 as numerics.matmul
            out = np.empty((n, d), dtype=a.dtype)
            np.add(a.transpose(axes), 0.0, out=out.reshape(b, t, n_heads, hd))
            return out

        scale = 1.0 / math.sqrt(hd)
        q4, k4, v4 = heads(self._data), heads(k._data), heads(v._data)
        kt = k4.swapaxes(-1, -2)
        # numerics.matmul's +0.0 pass is left out: adding the bias clears -0.0 too
        y = q4 @ kt if hd <= numerics.MATMUL_BLOCK else numerics.matmul(q4, kt)
        np.multiply(y, scale, out=y)
        np.add(y, bias, out=y)
        m = np.maximum.reduce(np.ascontiguousarray(y.swapaxes(-1, -2)), axis=-2)
        np.subtract(y, m[..., None], out=y)
        np.exp(y, out=y)
        np.true_divide(y, np.add.reduce(y, axis=-1, keepdims=True), out=y)
        ctx = y @ v4 if t <= numerics.MATMUL_BLOCK else numerics.matmul(y, v4)
        qn, kn, vn = self._node, k._node, v._node

        def back(g):
            g4 = np.ascontiguousarray(heads(g))
            if vn is not None:
                vn.accum(merge(numerics.matmul(y.swapaxes(-1, -2), g4), (0, 2, 1, 3)), fresh=True)
            # softmax backward of the attention weights y, then scale
            ga = numerics.matmul(g4, v4.swapaxes(-1, -2))
            r = np.multiply(ga, y)
            np.subtract(ga, np.add.reduce(r, axis=-1, keepdims=True), out=r)
            np.multiply(y, r, out=r)
            np.multiply(r, scale, out=r)
            if qn is not None:
                qn.accum(merge(numerics.matmul(r, k4), (0, 2, 1, 3)), fresh=True)
            if kn is not None:
                kn.accum(merge(numerics.matmul(q4.swapaxes(-1, -2), r), (0, 3, 1, 2)), fresh=True)
        return self._make(merge(ctx, (0, 2, 1, 3)), (self, k, v), back)

    def cross_entropy_mean(self, targets: np.ndarray) -> "Tensor":
        """Mean token cross-entropy of row logits against integer targets."""
        x = self._data
        t = np.asarray(targets)
        if t.shape[0] != x.shape[0]:
            raise ShapeError(f"{t.shape[0]} targets for {x.shape[0]} logit rows")
        rows = np.arange(x.shape[0])
        m = np.maximum.reduce(x, axis=-1, keepdims=True)
        e = np.subtract(x, m)
        np.exp(e, out=e)
        lse = np.add.reduce(e, axis=-1)
        np.log(lse, out=lse)
        np.add(m.squeeze(-1), lse, out=lse)
        loss = np.subtract(lse, x[rows, t], out=lse).mean()
        sn = self._node
        def back(g):
            p = np.subtract(x, m)
            np.exp(p, out=p)
            np.true_divide(p, np.add.reduce(p, axis=-1, keepdims=True), out=p)
            p[rows, t] -= 1.0
            sn.accum(np.multiply(g / x.shape[0], p, out=p))
        return self._make(np.asarray(loss, dtype=x.dtype), (self,), back)

    def __repr__(self):
        return f"Tensor(shape={self._data.shape}, dtype={self._data.dtype}, grad={'yes' if self.grad is not None else 'no'})"


def param(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)


def causal_bias(t: int, dtype) -> np.ndarray:
    """The (t, t) additive mask of `Tensor.causal_attention`: 0 where key j <= query i,
    -1e30 where j > i, so exp() underflows and the future key gets probability 0."""
    return np.triu(np.full((t, t), -1e30, dtype=dtype), 1)
