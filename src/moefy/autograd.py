"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each op records its parents and a closure that scatters the
output gradient back to them. The op set is what the program records (the
language model, the routed FFN paths and the three loss terms), plus `sum`,
which the float64 gradient checks reduce with. `+` and `*` never broadcast:
a bias rides in `matmul`, attention's scale and mask in `causal_softmax`.

Gradients are exact. A constant Tensor (one that does not require grad)
receives none, so a constant 0/1 scale of `scale_blocks` passes no gradient.
Discrete expert selection in adaptation training is data in the same way:
it is the constant mask of the union-kernel op `sparse_exec.sparse_ffn_graph`,
and no gradient flows through the decision itself.

Backward consumes the tape: one backward per forward. As reverse mode
passes an inner node it drops that node's gradient, its closure (and with
it the inputs the closure saved, such as layernorm's `xhat`) and its parent
links, so gradients and activations are freed as the walk moves down the
graph. Leaves (parameters, routers) keep `.grad`; inner nodes keep none. A
second backward through a consumed node raises `RuntimeError`.

Buffer rule for the ops: forward and backward write only arrays they
allocated themselves, never an input, `self.data` or a value a backward
closure still reads (such as layernorm's `xhat`), and they keep the operand
order of the plain numpy expression, so results are byte-identical to it.
"""

from __future__ import annotations

import contextlib
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


class Tensor:
    """Array node on the tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple = ()

    # -- graph plumbing ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _accum(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add `g` to `.grad`. `fresh` says that nothing else holds `g` and that
        it has no -0.0 (a `numerics.matmul` result), so a first gradient of
        this dtype is kept as it is instead of copied."""
        if self.grad is None and fresh and g.dtype == self.data.dtype:
            self.grad = g
        elif self.grad is None:
            # adding 0.0 keeps the bytes of a zero-filled start (-0.0 becomes +0.0)
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every leaf's `.grad`, consuming the tape.

        Each inner node's closure runs once, in reverse topological order;
        then the node's `.grad`, closure and parent links are dropped. Run
        the forward pass again before the next backward: reaching a consumed
        node raises `RuntimeError` before any gradient is written.
        """
        if self.data.size != 1:
            raise ShapeError("backward() expects a scalar loss")
        if not np.isfinite(self.data).all():
            raise NumericError(f"non-finite loss: {float(self.data)}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _spent:
                _spent()
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf or a constant
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _spent, ()

    def item(self) -> float:
        return float(self.data)

    # -- op construction -----------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- arithmetic ----------------------------------------------------

    def _check_operand(self, other, op: str) -> None:
        if not isinstance(other, Tensor):
            raise TypeError(f"{op} takes a Tensor or a Python scalar, got {type(other).__name__}")
        if other.data.shape != self.data.shape:
            raise ShapeError(f"{op} needs equal shapes, got {self.data.shape} and {other.data.shape}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return self._make(self.data + other, (self,), lambda g: self._accum(g))
        self._check_operand(other, "+")
        def back(g):
            if self.requires_grad:
                self._accum(g)
            if other.requires_grad:
                other._accum(g)
        return self._make(self.data + other.data, (self, other), back)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._make(self.data * other, (self,), lambda g: self._accum(g * other))
        self._check_operand(other, "*")
        def back(g):
            if self.requires_grad:
                self._accum(g * other.data)
            if other.requires_grad:
                other._accum(g * self.data)
        return self._make(self.data * other.data, (self, other), back)

    def matmul(self, other: "Tensor", bias: Optional["Tensor"] = None) -> "Tensor":
        """2-D or stacked (..., m, k) @ (..., k, n) product via numerics.matmul,
        plus an optional (n,) `bias` on every row of a 2-D product."""
        data = numerics.matmul(self.data, other.data)
        if bias is not None:
            if data.ndim != 2 or bias.data.shape != data.shape[1:]:
                raise ShapeError(f"bias {bias.data.shape} for a {data.shape} product")
            data += bias.data
        def back(g):
            if bias is not None and bias.requires_grad:
                bias._accum(g.sum(axis=0))
            if self.requires_grad:
                self._accum(numerics.matmul(g, other.data.swapaxes(-1, -2)), fresh=True)
            if other.requires_grad:
                other._accum(numerics.matmul(self.data.swapaxes(-1, -2), g), fresh=True)
        return self._make(data, (self, other) if bias is None else (self, other, bias), back)

    def transpose(self) -> "Tensor":
        """Swap the last two axes."""
        return self._make(self.data.swapaxes(-1, -2), (self,),
                          lambda g: self._accum(g.swapaxes(-1, -2)))

    def reshape(self, *shape: int) -> "Tensor":
        return self._make(self.data.reshape(shape), (self,),
                          lambda g: self._accum(g.reshape(self.data.shape)))

    def permute(self, *axes: int) -> "Tensor":
        return self._make(self.data.transpose(axes), (self,),
                          lambda g: self._accum(g.transpose(tuple(np.argsort(axes)))))

    # -- nonlinearities -------------------------------------------------

    def act(self, kind: str) -> "Tensor":
        data = numerics.activation(self.data, kind)
        def back(g):
            self._accum(g * numerics.activation_grad(self.data, kind))
        return self._make(data, (self,), back)

    def sigmoid(self) -> "Tensor":
        y = numerics.sigmoid(self.data)
        return self._make(y, (self,), lambda g: self._accum(g * y * (1.0 - y)))

    def square(self) -> "Tensor":
        return self._make(self.data * self.data, (self,), lambda g: self._accum(2.0 * self.data * g))

    def clamp_min(self, floor: float) -> "Tensor":
        keep = self.data > floor
        data = np.maximum(self.data, floor)
        return self._make(data, (self,), lambda g: self._accum(g * keep))

    def reciprocal(self) -> "Tensor":
        inv = 1.0 / self.data
        return self._make(inv, (self,), lambda g: self._accum(-g * inv * inv))

    # -- reductions ------------------------------------------------------

    def mean(self) -> "Tensor":
        n = self.data.size
        data = np.asarray(self.data.mean(), dtype=self.data.dtype)
        return self._make(data, (self,), lambda g: self._accum(np.full_like(self.data, g / n)))

    def sum(self) -> "Tensor":
        data = np.asarray(self.data.sum(), dtype=self.data.dtype)
        return self._make(data, (self,), lambda g: self._accum(np.full_like(self.data, g)))

    # -- structure -------------------------------------------------------

    def rows(self, idx: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup); duplicate indices accumulate."""
        idx = np.asarray(idx)
        def back(g):
            acc = np.zeros_like(self.data)
            np.add.at(acc, idx, g)
            self._accum(acc)
        return self._make(self.data[idx], (self,), back)

    def scale_blocks(self, scale: "Tensor") -> "Tensor":
        """(T, d) times a (T, m) scale: column j of `scale` multiplies the j-th
        block of d / m adjacent columns (expert score -> its neurons), read
        through a broadcast view rather than repeated to (T, d)."""
        t, d = self.data.shape
        m = scale.data.shape[1]
        if d % m != 0:
            raise ShapeError(f"{d} columns not divisible into {m} scale blocks")
        blocks = (t, m, d // m)
        s = scale.data[:, :, None]
        data = np.multiply(self.data.reshape(blocks), s).reshape(t, d)
        def back(g):
            gb = g.reshape(blocks)
            if self.requires_grad:
                self._accum(np.multiply(gb, s).reshape(t, d))
            if scale.requires_grad:
                scale._accum(np.multiply(gb, self.data.reshape(blocks)).sum(axis=2))
        return self._make(data, (self, scale), back)

    # -- fused layers ------------------------------------------------------

    def layernorm(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-5) -> "Tensor":
        # population mean and variance as np.mean/np.var compute them: a
        # pairwise sum, then a true divide by the intp row length
        x = self.data
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
        data = np.multiply(gain.data, xhat)
        np.add(data, bias.data, out=data)
        def back(g):
            if gain.requires_grad:
                gain._accum((g * xhat).sum(axis=0))
            if bias.requires_grad:
                bias._accum(g.sum(axis=0))
            if self.requires_grad:
                # standard layernorm backward, population variance:
                # inv * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
                gxhat = np.multiply(g, gain.data)
                m1 = np.add.reduce(gxhat, axis=-1, keepdims=True)
                np.true_divide(m1, d, out=m1)
                r = np.multiply(gxhat, xhat)
                m2 = np.add.reduce(r, axis=-1, keepdims=True)
                np.true_divide(m2, d, out=m2)
                np.multiply(xhat, m2, out=r)
                np.subtract(gxhat, m1, out=gxhat)
                np.subtract(gxhat, r, out=gxhat)
                self._accum(np.multiply(inv, gxhat, out=gxhat))
        return self._make(data, (self, gain, bias), back)

    def causal_softmax(self, scale: float) -> "Tensor":
        """Softmax over the last axis of `self * scale`, where key j > query i
        first gets -1e30 added: exp() underflows, so its probability is 0."""
        q, k = self.data.shape[-2:]
        y = np.multiply(self.data, scale)
        np.add(y, -1e30, out=y, where=np.arange(k) > np.arange(q)[:, None])
        np.subtract(y, np.maximum.reduce(y, axis=-1, keepdims=True), out=y)
        np.exp(y, out=y)
        np.true_divide(y, np.add.reduce(y, axis=-1, keepdims=True), out=y)
        def back(g):
            r = np.multiply(g, y)
            np.subtract(g, np.add.reduce(r, axis=-1, keepdims=True), out=r)
            np.multiply(y, r, out=r)
            self._accum(np.multiply(r, scale, out=r))
        return self._make(y, (self,), back)

    def cross_entropy_mean(self, targets: np.ndarray) -> "Tensor":
        """Mean token cross-entropy of row logits against integer targets."""
        x = self.data
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
        def back(g):
            p = np.subtract(x, m)
            np.exp(p, out=p)
            np.true_divide(p, np.add.reduce(p, axis=-1, keepdims=True), out=p)
            p[rows, t] -= 1.0
            self._accum(np.multiply(g / x.shape[0], p, out=p))
        return self._make(np.asarray(loss, dtype=x.dtype), (self,), back)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={'yes' if self.grad is not None else 'no'})"


def param(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)
