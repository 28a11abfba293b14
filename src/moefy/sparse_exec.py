"""Structured-sparsity execution: packed expert slabs, the sparse FFN kernel, FLOPs, bench.

Weights are stored expert-major and hidden-unit-major: each expert's share of
every role that runs over d_ffn (`model.D_FFN_AXIS`) forms one contiguous
(expert_size x d_model) slab for `up`, `gate` and `down`, and (expert_size,)
for `b1`, so a run of adjacent experts [a, b) is one contiguous row block
of `slab.reshape(-1, d_model)`. The CPU kernel computes over the union of
the experts any row of the call selected: one up matmul (two with a gate) and
one down matmul per run of adjacent union experts, over all rows, with the
bias, the activation and the selection mask applied once to the whole hidden
buffer. A one-row call runs each selected expert as its own run. The
kernel, `_union_ffn`, takes one selection format, a (T, n_experts) bool
mask, and checks its inputs in that one place. Three callers reach it:
`sparse_ffn_forward` (no graph, over packed slabs) for `bench` and
acceptance criteria 1 and 7; `routing.moe_forward_discrete` (the no-grad
serving path, also over packed slabs), which calls `_union_ffn` itself
because perfbench's trace reads the second argument of `sparse_ffn_forward`
as per-token id arrays and would count a mask row as every expert selected;
and `sparse_ffn_graph` (one graph op over views of a model's parameters, so
stage-2 training computes and differentiates only the union).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import numerics
from .autograd import Tensor, no_grad
from .grouping import apply_partition, group_experts_random
from .model import (D_FFN_AXIS, FfnLayer, ModelConfig, TransformerParams, ffn_flops_per_token,
                    ffn_hidden, ffn_out, ffn_param_names, get_ffn_layer, init_params,
                    set_ffn_layer)
from .numerics import Rng, blas_threads


@dataclass
class PackedExpertWeights:
    """A permuted layer's weights as expert slabs; each slab field is named by its role."""
    activation: str
    n_experts: int
    expert_size: int
    up: np.ndarray                 # (n, expert_size, d_model), used transposed
    down: np.ndarray               # (n, expert_size, d_model)
    gate: Optional[np.ndarray] = None   # same layout as up, gated layers only
    b1: Optional[np.ndarray] = None     # (n, expert_size)
    b2: Optional[np.ndarray] = None     # (d_model,), shared, added once

    @property
    def d_model(self) -> int:
        return self.up.shape[2]


def _slab_view(w: np.ndarray, axis: int, n: int, e: int) -> np.ndarray:
    """A view of `w` with its d_ffn axis moved to the front and split into (n, e)."""
    w = np.moveaxis(w, axis, 0)
    return w.reshape((n, e) + w.shape[1:])


def _unslab(g: np.ndarray, axis: int) -> np.ndarray:
    """The inverse of `_slab_view`: an (n, e, ...) array in its role's own layout."""
    return np.moveaxis(g.reshape((-1,) + g.shape[2:]), 0, axis)


def pack(layer: FfnLayer) -> PackedExpertWeights:
    """Pack a permuted layer into contiguous expert slabs (lossless)."""
    if layer.partition is None:
        raise ValueError("layer is not permuted; run apply_partition first")
    n, e = layer.partition.n_experts, layer.partition.expert_size
    w = layer.weights
    slabs = {role: np.ascontiguousarray(_slab_view(w[role], axis, n, e))
             for role, axis in D_FFN_AXIS.items() if role in w}
    b2 = w["b2"].copy() if "b2" in w else None
    return PackedExpertWeights(layer.activation, n, e, b2=b2, **slabs)


def _expert_runs(union: np.ndarray, n_tok: int) -> list[tuple[int, int]]:
    """[a, b) runs of the experts in `union`, ascending: maximal runs of
    adjacent experts, or one run per expert for a one-row call, where merged
    products measured slower than one product per expert."""
    runs = []
    for e in np.flatnonzero(union).tolist():
        if n_tok > 1 and runs and runs[-1][1] == e:
            runs[-1] = (runs[-1][0], e + 1)
        else:
            runs.append((e, e + 1))
    return runs


def sparse_ffn_forward(packed: PackedExpertWeights, mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The union kernel's output for a (T, n_experts) bool selection mask,
    outside a graph: the entry for `bench` and acceptance criteria 1 and 7."""
    return _union_ffn(packed, mask, x)[0]


def _union_ffn(packed: PackedExpertWeights, mask: np.ndarray, x: np.ndarray) -> tuple:
    """Gather-free FFN over the union of the experts the rows of `x` selected.

    x is (T, d_model) and mask, the selection, is (T, n_experts) bool; every
    entry comes through here, so this is the one place that checks them. Every
    row runs through the union U of all selected experts, laid out in one
    (T, |U| * expert_size) hidden buffer. Each run of adjacent union experts
    costs one up matmul (two with a gate) on one contiguous slab block, and
    the bias and the activation run once. Each (token, expert) pair the token
    did not select is then set to exactly 0, so a non-finite value in that
    expert's up, gate or b1 slab never reaches the token (one in a `down` slab
    reaches every row of a call whose union holds the expert). Runs add their
    down matmuls into the output in ascending order, then `b2` is added.

    Returns the output and the tape `_union_ffn_grads` reads: x, the union,
    the hidden-buffer mask of unselected pairs, the up (after b1) and gate
    pre-activations, the gate's activation, and the masked hidden layer.
    """
    n, d, es = packed.n_experts, packed.d_model, packed.expert_size
    if x.ndim != 2 or x.shape[1] != d:
        raise numerics.ShapeError(f"x of shape {x.shape} for d_model {d}")
    if mask.dtype != bool or mask.shape != (x.shape[0], n):
        raise numerics.ShapeError(f"mask of shape {mask.shape} and dtype {mask.dtype} for "
                                  f"{x.shape[0]} rows and {n} experts; a bool mask is needed")
    # BLAS reads a strided x differently; a contiguous copy keeps the bytes
    x = np.ascontiguousarray(x)
    union = mask.any(axis=0)
    n_tok = x.shape[0]
    runs, lo = [], 0  # (slab rows, hidden columns) per run
    for a, b in _expert_runs(union, n_tok):
        runs.append((slice(es * a, es * b), slice(lo, lo + es * (b - a))))
        lo += es * (b - a)

    # a run's slab rows are one block of the (n * expert_size, d_model) views
    up_w, down_w = packed.up.reshape(-1, d), packed.down.reshape(-1, d)
    gate_w = packed.gate.reshape(-1, d) if packed.gate is not None else None
    up = np.empty((n_tok, lo), dtype=np.result_type(x, packed.up))
    gate = np.empty_like(up) if gate_w is not None else None
    for r, c in runs:
        np.matmul(x, up_w[r].T, out=up[:, c])
        if gate is not None:
            np.matmul(x, gate_w[r].T, out=gate[:, c])
    if gate is None:
        up += packed.b1[union].reshape(-1)
        s, h = None, numerics.activation(up, packed.activation)
    else:
        s = numerics.activation(gate, packed.activation)
        h = s * up
    # where=, not a 0/1 multiply: NaN * 0 is NaN
    off = np.repeat(~mask[:, union], es, axis=1)
    np.copyto(h, 0, where=off)

    out = np.zeros((n_tok, d), dtype=x.dtype)
    part = np.empty_like(out)  # one buffer for every run's product
    for r, c in runs:
        out += np.matmul(h[:, c], down_w[r], out=part)
    if packed.b2 is not None:
        out += packed.b2
    return out, (x, union, off, up, gate, s, h)


def _union_ffn_grads(packed: PackedExpertWeights, tape: tuple,
                     g: np.ndarray) -> tuple[np.ndarray, dict]:
    """dx and the role -> gradient dict (in the packed layout) of `_union_ffn`
    for the output gradient `g`. Each product spans the whole union, over a
    copy of the union's weight rows. Experts outside the union get exact
    zeros, and so does every unselected pair, as in the forward."""
    x, union, off, up, gate, s, h = tape
    d, es = packed.d_model, packed.expert_size
    # the union's slab rows, in hidden-buffer order
    rows = (np.flatnonzero(union)[:, None] * es + np.arange(es)).reshape(-1)
    roles = [role for role in ("up", "gate", "down") if getattr(packed, role) is not None]
    grads = {role: np.zeros(getattr(packed, role).shape, dtype=x.dtype) for role in roles}
    w = {role: getattr(packed, role).reshape(-1, d)[rows] for role in roles}
    dh = g @ w["down"].T
    grads["down"].reshape(-1, d)[rows] = h.T @ g
    if gate is None:
        dz = {"up": np.multiply(dh, numerics.activation_grad(up, packed.activation), out=dh)}
    else:  # h = s * up with s = activation(gate)
        dz = {"up": dh * s}
        np.multiply(dh, up, out=dh)
        dz["gate"] = np.multiply(dh, numerics.activation_grad(gate, packed.activation), out=dh)
    dx = np.zeros_like(x)
    for role, dr in dz.items():
        np.copyto(dr, 0, where=off)
        grads[role].reshape(-1, d)[rows] = dr.T @ x
        dx += dr @ w[role]
    if packed.b1 is not None:
        grads["b1"] = np.zeros(packed.b1.shape, dtype=x.dtype)
        grads["b1"][union] = dz["up"].sum(axis=0).reshape(-1, es)
    if packed.b2 is not None:
        grads["b2"] = g.sum(axis=0)
    return dx, grads


def sparse_ffn_graph(params: TransformerParams, i: int, x: Tensor, mask: np.ndarray) -> Tensor:
    """Block i's FFN under a constant (T, n_experts) selection mask, as one
    graph node over the union kernel.

    The forward is `_union_ffn` on the mask, over views of the permuted
    parameters (no packed copy); the backward gives x and every FFN weight
    a gradient over the union's columns only, with unselected pairs zeroed
    as in the forward. The mask is data: no gradient flows through it.
    """
    cfg = params.config
    n, es = cfg.n_experts, cfg.expert_size
    tensors = {role: params[name] for role, name in ffn_param_names(cfg, i).items()}
    slabs = {role: _slab_view(tensors[role].data, axis, n, es)
             for role, axis in D_FFN_AXIS.items() if role in tensors}
    b2 = tensors["b2"].data if "b2" in tensors else None
    packed = PackedExpertWeights(cfg.activation, n, es, b2=b2, **slabs)
    out, tape = _union_ffn(packed, mask, x.data)

    xn, nodes = x._node, {role: t._node for role, t in tensors.items()}

    def back(g):
        dx, grads = _union_ffn_grads(packed, tape, g)
        if xn is not None:
            xn.accum(dx)
        for role, node in nodes.items():
            if node is not None:
                node.accum(grads[role] if role == "b2" else _unslab(grads[role], D_FFN_AXIS[role]))
    return Tensor._make(out, (x, *tensors.values()), back)


@dataclass
class FlopsReport:
    dense_flops_per_token: float
    sparse_flops_per_token: float
    router_flops_per_token: float
    router_share_of_ffn: float


def flops_per_token(cfg: ModelConfig, mean_selected, router: bool = True) -> FlopsReport:
    """FFN FLOPs per token across all layers; one multiply-add counts as 2.

    Dense layer: `model.ffn_flops_per_token`. Router: 2 * d_model * n_experts
    per layer, charged only with `router`. The sparse figure scales the FFN
    term by the selected fraction of experts and adds the router.
    """
    n, layers = cfg.n_experts, cfg.n_layers
    per_layer_dense = ffn_flops_per_token(cfg)
    per_layer_router = 2 * cfg.d_model * n if router else 0
    if np.isscalar(mean_selected):
        selected = [float(mean_selected)] * layers
    else:
        selected = [float(k) for k in mean_selected]
        if len(selected) != layers:
            raise ValueError(f"{len(selected)} selection means for {layers} layers")
    dense = per_layer_dense * layers
    sparse = sum(per_layer_dense * (k / n) for k in selected) + per_layer_router * layers
    return FlopsReport(
        dense_flops_per_token=float(dense),
        sparse_flops_per_token=float(sparse),
        router_flops_per_token=float(per_layer_router * layers),
        router_share_of_ffn=per_layer_router / per_layer_dense,
    )


# --- benchmark harness -------------------------------------------------------

BENCH_ACTIVATION = "relu"  # activation of the synthetic bench layers
BENCH_COLUMNS = ("shape", "path", "sparsity", "median_ns", "iqr_ns", "threads", "trials")


@dataclass
class BenchReport:
    rows: list
    warnings: list
    meta: dict


def _time_call(fn, warmups: int, trials: int) -> tuple[int, int]:
    for _ in range(warmups):
        fn()
    samples = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    med = int(statistics.median(samples))
    q1, q3 = np.percentile(samples, [25, 75])
    return med, int(q3 - q1)


def bench(
    shapes: Sequence[tuple[int, int]] = ((512, 2048), (1024, 4096)),
    batch_sizes: Sequence[int] = (1, 32),
    sparsity_grid: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    expert_size: int = 128,
    trials: int = 30,
    warmups: int = 5,
    seed: int = 0,
) -> BenchReport:
    """Median/IQR wall time per FFN call, dense path vs gather path.

    Shapes cover the single-token decode case and a batched case; one row is
    emitted per (shape, path, sparsity) so the table has
    len(grid) * len(shape set) * 2 rows.
    """
    if trials < 30:
        raise ValueError("trials must be >= 30")
    if warmups < 5:
        raise ValueError("warmups must be >= 5")
    for _, d_ffn in shapes:
        if expert_size <= 0 or d_ffn % expert_size:
            raise ValueError(f"expert_size must be a positive divisor of d_ffn {d_ffn}, "
                             f"got {expert_size}")
    for sparsity in sparsity_grid:
        if not 0.0 <= sparsity < 1.0:
            raise ValueError(f"sparsity grid values must be in [0, 1), got {sparsity}")
    rng = Rng(seed)
    rows = []
    warnings = []
    resolution_ns = max(1, int(time.get_clock_info("perf_counter").resolution * 1e9))

    for d_model, d_ffn in shapes:
        n = d_ffn // expert_size
        cfg = ModelConfig(vocab_size=1, d_model=d_model, n_heads=1, n_layers=1, d_ffn=d_ffn,
                          max_seq_len=1, activation=BENCH_ACTIVATION, expert_size=expert_size)
        params = init_params(cfg, rng.split(f"weights_{d_model}_{d_ffn}"))
        part = group_experts_random(d_ffn, n, rng.split(f"partition_{d_model}_{d_ffn}"))
        layer = apply_partition(get_ffn_layer(params, 0), part)
        set_ffn_layer(params, 0, layer)  # the dense reference times the permuted weights too
        packed = pack(layer)
        for batch in batch_sizes:
            x = rng.split(f"x_{d_model}_{d_ffn}_{batch}").normal((batch, d_model), std=1.0)
            shape_tag = f"T{batch}_d{d_model}_f{d_ffn}"
            for sparsity in sparsity_grid:
                k = max(1, int(round((1.0 - sparsity) * n)))
                srng = rng.split(f"sel_{shape_tag}_{sparsity}")
                mask = np.zeros((batch, n), dtype=bool)
                for row in mask:
                    row[srng.choice(n, k)] = True
                with no_grad():
                    med_d, iqr_d = _time_call(
                        lambda: ffn_out(params, 0, ffn_hidden(params, 0, Tensor(x))),
                        warmups, trials)
                med_s, iqr_s = _time_call(
                    lambda: sparse_ffn_forward(packed, mask, x), warmups, trials
                )
                for path, med, iqr in (("dense", med_d, iqr_d), ("sparse", med_s, iqr_s)):
                    if med < 100 * resolution_ns:
                        warnings.append(
                            f"{shape_tag}/{path}: median {med} ns too close to timer resolution"
                        )
                    rows.append(
                        dict(
                            shape=shape_tag,
                            path=path,
                            sparsity=sparsity,
                            median_ns=med,
                            iqr_ns=iqr,
                            threads=blas_threads(),
                            trials=trials,
                        )
                    )
    meta = dict(expert_size=expert_size, seed=seed, activation=BENCH_ACTIVATION, warmups=warmups)
    return BenchReport(rows=rows, warnings=warnings, meta=meta)


def format_bench_report(report: BenchReport) -> str:
    lines = [f"# {k}={v}" for k, v in sorted(report.meta.items())]
    lines += [f"# warning: {w}" for w in report.warnings]
    lines.append("\t".join(BENCH_COLUMNS))
    for row in report.rows:
        lines.append("\t".join(str(row[c]) for c in BENCH_COLUMNS))
    return "\n".join(lines) + "\n"
