"""Structured-sparsity execution: packed expert slabs, gather FFN, FLOPs, bench.

Weights are stored expert-major: each expert's up-projection columns form one
contiguous (d_model x expert_size) slab and its down-projection rows one
contiguous (expert_size x d_model) slab, so selecting an expert loads whole
slabs instead of strided columns. The CPU kernel dispatches expert-major:
for each selected expert, in ascending order, it gathers the tokens that
chose it, runs one matmul pair over them and scatter-adds the result.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import numerics
from .model import FfnLayer, GluFfnLayer, ModelConfig
from .numerics import Rng


@dataclass
class PackedExpertWeights:
    kind: str                      # two_matmul | swiglu
    activation: str
    n_experts: int
    expert_size: int
    up: np.ndarray                 # (n, d_model, expert_size)
    down: np.ndarray               # (n, expert_size, d_model)
    gate: Optional[np.ndarray] = None   # swiglu only, same layout as up
    b1: Optional[np.ndarray] = None     # (n, expert_size), two_matmul only
    b2: Optional[np.ndarray] = None     # (d_model,), shared, added once

    @property
    def d_model(self) -> int:
        return self.up.shape[1]


def _slab_up(w: np.ndarray, n: int, e: int) -> np.ndarray:
    # (d, n*e) -> (n, d, e), each expert's columns contiguous
    d = w.shape[0]
    return np.ascontiguousarray(w.reshape(d, n, e).transpose(1, 0, 2))


def _slab_down(w: np.ndarray, n: int, e: int) -> np.ndarray:
    # (n*e, d) -> (n, e, d), each expert's rows contiguous
    return np.ascontiguousarray(w.reshape(n, e, w.shape[1]))


def pack(layer) -> PackedExpertWeights:
    """Pack a permuted layer into contiguous expert slabs (lossless)."""
    if layer.partition is None:
        raise ValueError("layer is not permuted; run apply_partition first")
    p = layer.partition
    n, e = p.n_experts, p.expert_size
    if isinstance(layer, FfnLayer):
        return PackedExpertWeights(
            kind="two_matmul",
            activation=layer.activation,
            n_experts=n,
            expert_size=e,
            up=_slab_up(layer.W1, n, e),
            down=_slab_down(layer.W2, n, e),
            b1=np.ascontiguousarray(layer.b1.reshape(n, e)),
            b2=layer.b2.copy(),
        )
    if isinstance(layer, GluFfnLayer):
        return PackedExpertWeights(
            kind="swiglu",
            activation="silu",
            n_experts=n,
            expert_size=e,
            up=_slab_up(layer.W_up, n, e),
            gate=_slab_up(layer.W_gate, n, e),
            down=_slab_down(layer.W_down, n, e),
        )
    raise TypeError(f"not an FFN layer: {type(layer).__name__}")


def unpack(packed: PackedExpertWeights, partition=None):
    """Invert pack(); reproduces the permuted dense weights exactly."""
    n, e, d = packed.n_experts, packed.expert_size, packed.d_model
    up = packed.up.transpose(1, 0, 2).reshape(d, n * e)
    down = packed.down.reshape(n * e, d)
    if packed.kind == "two_matmul":
        return FfnLayer(
            W1=np.ascontiguousarray(up),
            b1=packed.b1.reshape(-1).copy(),
            W2=np.ascontiguousarray(down),
            b2=packed.b2.copy(),
            activation=packed.activation,
            partition=partition,
        )
    gate = packed.gate.transpose(1, 0, 2).reshape(d, n * e)
    return GluFfnLayer(
        W_gate=np.ascontiguousarray(gate),
        W_up=np.ascontiguousarray(up),
        W_down=np.ascontiguousarray(down),
        partition=partition,
    )


def _selection_mask(selections: Sequence[np.ndarray], n: int) -> np.ndarray:
    """(T, n) bool mask of per-token expert ids, each sorted ascending and unique."""
    counts = np.fromiter((len(s) for s in selections), dtype=np.int64, count=len(selections))
    ids = np.concatenate([np.zeros(0, np.int64)]
                         + [np.asarray(s, dtype=np.int64) for s in selections])
    tok = np.repeat(np.arange(len(selections)), counts)
    # ids are compared only inside one token's segment, never across a boundary
    bad = (np.diff(ids) <= 0) & (tok[1:] == tok[:-1])
    if bad.any():
        t = int(tok[1:][bad][0])
        raise ValueError(f"selection must be sorted ascending and unique: token {t}: "
                         f"{selections[t]}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        t = int(tok[(ids < 0) | (ids >= n)][0])
        raise ValueError(f"expert id out of range [0, {n}): token {t}: {selections[t]}")
    mask = np.zeros((len(selections), n), dtype=bool)
    mask[tok, ids] = True
    return mask


def sparse_ffn_forward(
    packed: PackedExpertWeights,
    selections: Sequence[np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Gather-based FFN: per token, only selected expert slabs are touched.

    selections[t] lists that token's expert ids, sorted ascending, unique.
    Dispatch is expert-major: each expert any token selected gathers its
    tokens and runs one up/down matmul pair, in ascending expert order, so
    every token sums its experts in ascending order.
    """
    if x.ndim != 2 or len(selections) != x.shape[0]:
        raise numerics.ShapeError(
            f"{len(selections)} selections for input of shape {x.shape}"
        )
    mask = _selection_mask(selections, packed.n_experts)
    out = np.zeros((x.shape[0], packed.d_model), dtype=x.dtype)
    for e in np.flatnonzero(mask.any(axis=0)):
        idx = np.flatnonzero(mask[:, e])
        xe = x[idx]
        if packed.kind == "two_matmul":
            h = numerics.activation(xe @ packed.up[e] + packed.b1[e], packed.activation)
        else:
            h = numerics.activation(xe @ packed.gate[e], "silu") * (xe @ packed.up[e])
        out[idx] += h @ packed.down[e]
    if packed.b2 is not None:
        out += packed.b2
    return out


@dataclass
class FlopsReport:
    dense_flops_per_token: float
    sparse_flops_per_token: float
    router_flops_per_token: float
    router_share_of_ffn: float
    mean_selected_per_layer: list = field(default_factory=list)


def flops_per_token(cfg: ModelConfig, mean_selected) -> FlopsReport:
    """FFN FLOPs per token across all layers; one multiply-add counts as 2.

    Dense two-matmul layer: 4 * d_model * d_ffn; gated layer: 6 * d_model *
    d_ffn. Router: 2 * d_model * n_experts per layer. The sparse figure
    scales the FFN term by the selected fraction and always pays the router.
    """
    d, f, n, layers = cfg.d_model, cfg.d_ffn, cfg.n_experts, cfg.n_layers
    per_layer_dense = (4 if cfg.ffn_kind == "two_matmul" else 6) * d * f
    router = 2 * d * n
    if np.isscalar(mean_selected):
        selected = [float(mean_selected)] * layers
    else:
        selected = [float(k) for k in mean_selected]
        if len(selected) != layers:
            raise ValueError(f"{len(selected)} selection means for {layers} layers")
    dense = per_layer_dense * layers
    sparse = sum(per_layer_dense * (k / n) for k in selected) + router * layers
    return FlopsReport(
        dense_flops_per_token=float(dense),
        sparse_flops_per_token=float(sparse),
        router_flops_per_token=float(router * layers),
        router_share_of_ffn=router / per_layer_dense,
        mean_selected_per_layer=selected,
    )


# --- benchmark harness -------------------------------------------------------

BENCH_COLUMNS = ("shape", "path", "sparsity", "median_ns", "iqr_ns", "threads", "trials")


@dataclass
class BenchReport:
    rows: list
    warnings: list
    meta: dict


def _dense_ffn_call(layer: FfnLayer, x: np.ndarray, threads: int) -> np.ndarray:
    h = numerics.matmul(x, layer.W1, threads=threads) + layer.b1
    return numerics.matmul(numerics.activation(h, layer.activation), layer.W2, threads=threads) + layer.b2


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
    threads: int = 1,
    activation: str = "relu",
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
    rng = Rng(seed)
    rows = []
    warnings = []
    resolution_ns = max(1, int(time.get_clock_info("perf_counter").resolution * 1e9))

    for d_model, d_ffn in shapes:
        n = d_ffn // expert_size
        wrng = rng.split(f"weights_{d_model}_{d_ffn}")
        layer = FfnLayer(
            W1=wrng.normal((d_model, d_ffn), std=0.02),
            b1=np.zeros(d_ffn, dtype=np.float32),
            W2=wrng.normal((d_ffn, d_model), std=0.02),
            b2=np.zeros(d_model, dtype=np.float32),
            activation=activation,
        )
        from .grouping import ExpertPartition  # synthetic identity partition

        ident = ExpertPartition(
            layer_index=0,
            n_experts=n,
            expert_size=expert_size,
            assignment=np.arange(d_ffn) // expert_size,
            permutation=np.arange(d_ffn),
            method="random",
        )
        layer.partition = ident
        packed = pack(layer)
        for batch in batch_sizes:
            x = rng.split(f"x_{d_model}_{d_ffn}_{batch}").normal((batch, d_model), std=1.0)
            shape_tag = f"T{batch}_d{d_model}_f{d_ffn}"
            for sparsity in sparsity_grid:
                k = max(1, int(round((1.0 - sparsity) * n)))
                srng = rng.split(f"sel_{shape_tag}_{sparsity}")
                selections = [np.sort(srng.choice(n, k)) for _ in range(batch)]
                med_d, iqr_d = _time_call(lambda: _dense_ffn_call(layer, x, threads), warmups, trials)
                med_s, iqr_s = _time_call(
                    lambda: sparse_ffn_forward(packed, selections, x), warmups, trials
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
                            threads=threads,
                            trials=trials,
                        )
                    )
    meta = dict(expert_size=expert_size, seed=seed, activation=activation, warmups=warmups)
    return BenchReport(rows=rows, warnings=warnings, meta=meta)


def format_bench_report(report: BenchReport) -> str:
    lines = [f"# {k}={v}" for k, v in sorted(report.meta.items())]
    lines += [f"# warning: {w}" for w in report.warnings]
    lines.append("\t".join(BENCH_COLUMNS))
    for row in report.rows:
        lines.append("\t".join(str(row[c]) for c in BENCH_COLUMNS))
    return "\n".join(lines) + "\n"


def write_bench_report(report: BenchReport, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_bench_report(report))
