"""Structured-sparsity execution: the sparse FFN kernel over expert slabs, FLOPs, bench.

The kernel reads a layer as `model.FfnLayer` expert slabs, so a run of
adjacent experts [a, b) is one row block of `slab.reshape(-1, d_model)`.
`model.get_ffn_layer` gives the slabs as views of a model's parameters, and
`pack` copies them into contiguous arrays once. The CPU kernel computes over
the union of the experts any row of the call selected: one up matmul (two
with a gate) and one down matmul per run of adjacent union experts, over all
rows, with the bias, the activation and the selection mask applied once to
the whole hidden buffer. A one-row call runs each selected expert as its own
run. The kernel, `_union_ffn`, takes one selection format, a (T, n_experts)
bool mask, and checks its inputs in that one place. Three callers reach it:
`sparse_ffn_forward` (no graph, over packed slabs) for `bench` and
acceptance criteria 1 and 7; `routing.moe_forward_discrete` (the no-grad
serving path, also over packed slabs), which calls `_union_ffn` itself
because perfbench's trace reads the second argument of `sparse_ffn_forward`
as per-token id arrays and would count a mask row as every expert selected;
and `sparse_ffn_graph` (one graph op over the parameter views, so stage-2
training computes and differentiates only the union).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import numerics
from .autograd import Tensor, no_grad
from .grouping import apply_partition, group_experts_random
from .model import (D_FFN_AXIS, FfnLayer, ModelConfig, TransformerParams, _unslab,
                    ffn_flops_per_token, ffn_hidden, ffn_out, ffn_param_names, get_ffn_layer,
                    init_params)
from .numerics import Rng, blas_threads


def pack(layer: FfnLayer) -> FfnLayer:
    """C-contiguous copies of a permuted layer's slabs (lossless), so that
    each run the kernel reads is one contiguous block."""
    if layer.partition is None:
        raise ValueError("layer is not permuted; run apply_partition first")
    return replace(layer, **{role: getattr(layer, role).copy() for role in (*D_FFN_AXIS, "b2")
                             if getattr(layer, role) is not None})


def _expert_runs(union: np.ndarray, n_tok: int) -> list[tuple[int, int]]:
    """[a, b) runs of the experts in `union`, ascending: maximal runs of
    adjacent experts, or one run per expert for a one-row call. Merged runs
    are faster at one row too, but they make `bench`'s one-row median at 0%
    sparsity (one run over every expert) read below its 25% median on some
    runs, which fails acceptance criterion 7's check that latency does not
    rise with sparsity; one product per expert keeps the order."""
    runs = []
    for e in np.flatnonzero(union).tolist():
        if n_tok > 1 and runs and runs[-1][1] == e:
            runs[-1] = (runs[-1][0], e + 1)
        else:
            runs.append((e, e + 1))
    return runs


def sparse_ffn_forward(packed: FfnLayer, mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The union kernel's output for a (T, n_experts) bool selection mask,
    outside a graph: the entry for `bench` and acceptance criteria 1 and 7."""
    return _union_ffn(packed, mask, x)[0]


def _zero_unselected(h: np.ndarray, keep) -> None:
    """Set each entry of `h` whose int8 `keep` is 0 to exactly +0.0, in place,
    and leave the entries whose `keep` is -1 bit for bit, NaN included (a 0/1
    multiply would not: NaN * 0 is NaN). AND on h's bits as integers of its
    item size: with 0 it clears every bit, with -1 it keeps every bit. A
    `keep` of None (every pair selected) leaves `h` as it is."""
    if keep is None:
        return
    bits = h.view(f"i{h.itemsize}")
    np.bitwise_and(bits, keep, out=bits)


def _union_ffn(packed: FfnLayer, mask: np.ndarray, x: np.ndarray) -> tuple:
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
    the hidden buffer's 0 / -1 selection for `_zero_unselected`, the up (after
    b1) and gate pre-activations, the gate's activation, and the masked
    hidden layer.
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
    sel = mask[:, union].view(np.int8)
    keep = None if sel.all() else np.repeat(np.negative(sel, out=sel), es, axis=1)
    _zero_unselected(h, keep)

    out = np.zeros((n_tok, d), dtype=x.dtype)
    part = np.empty_like(out)  # one buffer for every run's product
    for r, c in runs:
        out += np.matmul(h[:, c], down_w[r], out=part)
    if packed.b2 is not None:
        out += packed.b2
    return out, (x, union, keep, up, gate, s, h)


def _union_ffn_grads(packed: FfnLayer, tape: tuple,
                     g: np.ndarray) -> tuple[np.ndarray, dict]:
    """dx and the role -> gradient dict (in the packed layout) of `_union_ffn`
    for the output gradient `g`. Each product spans the whole union, over a
    copy of the union's weight rows. Experts outside the union get exact
    zeros, and so does every unselected pair, as in the forward."""
    x, union, keep, up, gate, s, h = tape
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
        _zero_unselected(dr, keep)
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

    The forward is `_union_ffn` on the mask, over `get_ffn_layer`'s views of
    the permuted parameters (no packed copy); the backward gives x and every
    FFN weight a gradient over the union's columns only, with unselected
    pairs zeroed as in the forward. The mask is data: no gradient flows
    through it.
    """
    tensors = {role: params[name] for role, name in ffn_param_names(params.config, i).items()}
    layer = get_ffn_layer(params, i)
    out, tape = _union_ffn(layer, mask, x.data)

    xn, nodes = x._node, {role: t._node for role, t in tensors.items()}

    def back(g):
        dx, grads = _union_ffn_grads(layer, tape, g)
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
        apply_partition(params, 0, part)  # the dense reference times the permuted weights too
        packed = pack(get_ffn_layer(params, 0, part))
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
