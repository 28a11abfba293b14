"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each op records its parents and a closure that scatters the
output gradient back to them. The op set is exactly what the language model,
the routed FFN paths, and the three loss terms need - nothing speculative.

Gradients are exact. A constant Tensor (one that does not require grad)
receives none: that is how discrete expert selection enters the graph in
adaptation training, as a 0/1 operand of `*`. The selection indicator is
piecewise constant, so the graph treats it as data and no gradient flows
through the decision itself.
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


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


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

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return self._make(self.data + other, (self,), lambda g: self._accum(g))
        if not isinstance(other, Tensor):
            other = Tensor(np.asarray(other))
        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))
        return self._make(self.data + other.data, (self, other), back)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + (-other)

    def __neg__(self):
        return self._make(-self.data, (self,), lambda g: self._accum(-g))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._make(self.data * other, (self,), lambda g: self._accum(g * other))
        if not isinstance(other, Tensor):
            other = Tensor(np.asarray(other))
        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))
        return self._make(self.data * other.data, (self, other), back)

    __radd__ = __add__
    __rmul__ = __mul__

    def matmul(self, other: "Tensor", threads: int = 1) -> "Tensor":
        data = numerics.matmul(self.data, other.data, threads=threads)
        def back(g):
            if self.requires_grad:
                self._accum(numerics.matmul(g, other.data.T, threads=threads))
            if other.requires_grad:
                other._accum(numerics.matmul(self.data.T, g, threads=threads))
        return self._make(data, (self, other), back)

    def __matmul__(self, other):
        return self.matmul(other)

    def transpose(self) -> "Tensor":
        return self._make(self.data.T, (self,), lambda g: self._accum(g.T))

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

    def row_slice(self, start: int, stop: int) -> "Tensor":
        def back(g):
            acc = np.zeros_like(self.data)
            acc[start:stop] = g
            self._accum(acc)
        return self._make(self.data[start:stop], (self,), back)

    def col_slice(self, start: int, stop: int) -> "Tensor":
        def back(g):
            acc = np.zeros_like(self.data)
            acc[:, start:stop] = g
            self._accum(acc)
        return self._make(self.data[:, start:stop], (self,), back)

    def repeat_cols(self, times: int) -> "Tensor":
        """Repeat each column `times` times (expert score -> per-neuron scale)."""
        t, n = self.data.shape
        data = np.repeat(self.data, times, axis=1)
        def back(g):
            self._accum(g.reshape(t, n, times).sum(axis=2))
        return self._make(data, (self,), back)

    # -- fused layers ------------------------------------------------------

    def layernorm(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-5) -> "Tensor":
        x = self.data
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv
        data = gain.data * xhat + bias.data
        d = x.shape[-1]
        def back(g):
            if gain.requires_grad:
                gain._accum((g * xhat).sum(axis=0))
            if bias.requires_grad:
                bias._accum(g.sum(axis=0))
            if self.requires_grad:
                gxhat = g * gain.data
                # standard layernorm backward, population variance
                dx = inv * (gxhat
                            - gxhat.mean(axis=-1, keepdims=True)
                            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
                self._accum(dx)
        return self._make(data, (self, gain, bias), back)

    def softmax_rows(self) -> "Tensor":
        x = self.data
        m = x.max(axis=-1, keepdims=True)
        e = np.exp(x - m)
        y = e / e.sum(axis=-1, keepdims=True)
        def back(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            self._accum(y * (g - dot))
        return self._make(y, (self,), back)

    def cross_entropy_mean(self, targets: np.ndarray) -> "Tensor":
        """Mean token cross-entropy of row logits against integer targets."""
        x = self.data
        t = np.asarray(targets)
        if t.shape[0] != x.shape[0]:
            raise ShapeError(f"{t.shape[0]} targets for {x.shape[0]} logit rows")
        m = x.max(axis=-1, keepdims=True)
        lse = m.squeeze(-1) + np.log(np.exp(x - m).sum(axis=-1))
        loss = (lse - x[np.arange(x.shape[0]), t]).mean()
        def back(g):
            p = np.exp(x - m)
            p /= p.sum(axis=-1, keepdims=True)
            p[np.arange(x.shape[0]), t] -= 1.0
            self._accum((g / x.shape[0]) * p)
        return self._make(np.asarray(loss, dtype=x.dtype), (self,), back)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={'yes' if self.grad is not None else 'no'})"


def param(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)
