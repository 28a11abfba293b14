"""Post-hoc measurement: sparsity reports, union sparsity, score concentration.

Everything here is a pure function of (checkpoint, eval tokens, tau):
rerunning a report reproduces it byte for byte. Reports serialize to a
key-value header plus tab-delimited tables, with a small internal SVG
renderer for the per-layer sparsity and score-histogram figures.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import losses, routing, sparse_exec
from .autograd import no_grad
from .checkpoint import CheckpointBundle
from .model import forward_lm, get_ffn_layer
from .numerics import Rng, blas_threads
from .sparse_exec import FlopsReport

HIST_BINS = 64

# Windows per forward_lm call in eval: one batched pass per chunk keeps the
# per-call cost spread over many tokens while memory stays bounded for any
# window count.
EVAL_CHUNK = 32

# eval method -> the `evaluate` arguments it reads; they form its ledger settings
METHOD_SETTINGS = {
    "dense": (),
    "lte": ("tau",),
    "dejavu": ("keep_fraction",),
    "moefication_gt": ("k",),
    "random_router": ("k", "seed"),
    "noisy_topk": ("k", "seed"),
}
EVAL_METHODS = tuple(METHOD_SETTINGS)
# methods that run a router per token, so their FLOPs pay for it
ROUTED = ("lte", "random_router", "noisy_topk")


def val_windows(data: np.ndarray, seq_len: int, max_windows: int) -> list[np.ndarray]:
    """Deterministic non-overlapping windows of seq_len + 1 tokens from the
    start of `data` (the held-out slice in eval)."""
    out = []
    for s in range(0, data.shape[0] - seq_len, seq_len):
        out.append(data[s : s + seq_len + 1].astype(np.int64))
        if len(out) >= max_windows:
            break
    if not out:
        raise ValueError(f"{data.shape[0]} tokens hold no window of seq_len + 1 = {seq_len + 1}")
    return out


def _chunks(windows: list[np.ndarray]):
    """Yield stacked (inputs, flat targets) for up to EVAL_CHUNK windows at a time."""
    for c in range(0, len(windows), EVAL_CHUNK):
        w = np.stack(windows[c:c + EVAL_CHUNK])
        yield w[:, :-1], w[:, 1:].reshape(-1)


def _eval_pass(bundle: CheckpointBundle, windows: list[np.ndarray], **forward_kwargs):
    """One no-grad forward_lm per chunk: (mean_ce, per-layer stacked scores, masks).

    The scores and masks lists are empty when the forward pass makes no
    RoutingDecisions (the dense FFN).
    """
    ce_sum, tok = 0.0, 0
    scores = [[] for _ in range(bundle.config.n_layers)]
    masks = [[] for _ in range(bundle.config.n_layers)]
    with no_grad():
        for x, y in _chunks(windows):
            res = forward_lm(bundle.params, x, **forward_kwargs)
            ce_sum += losses.task_loss(res.logits.data, y) * y.shape[0]
            tok += y.shape[0]
            for l, dec in enumerate(res.decisions or ()):
                scores[l].append(dec.scores)
                masks[l].append(dec.mask)
    return (
        ce_sum / tok,
        [np.concatenate(s) for s in scores if s],
        [np.concatenate(m) for m in masks if m],
    )


def collect_decisions(bundle: CheckpointBundle, windows: list[np.ndarray], tau: float):
    """Discrete-mode eval: returns (mean_ce, per-layer stacked scores and masks)."""
    packed = [sparse_exec.pack(get_ffn_layer(bundle.params, i, partition=p))
              for i, p in enumerate(bundle.partitions)]
    return _eval_pass(bundle, windows, ffn_mode="moe_discrete", routers=bundle.routers,
                      tau=tau, partitions=bundle.partitions, packed=packed)


def union_sparsity(mask: np.ndarray) -> float:
    """1 - |union of selected experts over the batch| / N."""
    if mask.shape[0] == 0:
        raise ValueError("empty batch")
    return float(1.0 - mask.any(axis=0).mean())


def score_concentration(scores: np.ndarray) -> tuple[float, float]:
    """(max mean expert score, entropy of the mean-score distribution)."""
    mean_per_expert = scores.mean(axis=0)
    total = mean_per_expert.sum()
    p = mean_per_expert / total
    nz = p[p > 0]
    entropy = float(-(nz * np.log(nz)).sum())
    return float(mean_per_expert.max()), entropy


@dataclass
class SparsityReport:
    tau: float
    eval_tokens: int
    corpus_hash: str
    stage: str
    per_layer_sparsity: list
    overall_sparsity: float
    histograms: np.ndarray          # (n_layers, HIST_BINS) counts over (0,1)
    union_by_batch: dict            # batch size -> per-layer union sparsity
    concentration: list             # per layer (max mean score, entropy)
    mean_selected_per_layer: list


def layer_sparsity_report(bundle: CheckpointBundle, windows: list[np.ndarray],
                          tau: float, corpus_hash: str = "") -> SparsityReport:
    _, scores, masks = collect_decisions(bundle, windows, tau)
    per_layer = [float(1.0 - m.mean()) for m in masks]
    hists = np.stack(
        [np.histogram(s, bins=HIST_BINS, range=(0.0, 1.0))[0] for s in scores]
    )
    n_tokens = masks[0].shape[0]
    union_by_batch = {}
    b = 1
    while b <= n_tokens:
        union_by_batch[b] = [union_sparsity(m[:b]) for m in masks]
        b *= 2
    return SparsityReport(
        tau=tau,
        eval_tokens=n_tokens,
        corpus_hash=corpus_hash,
        stage=bundle.stage,
        per_layer_sparsity=per_layer,
        overall_sparsity=float(np.mean(per_layer)),
        histograms=hists,
        union_by_batch=union_by_batch,
        concentration=[score_concentration(s) for s in scores],
        mean_selected_per_layer=[float(m.sum(axis=1).mean()) for m in masks],
    )


# --- eval metrics ---------------------------------------------------------------


@dataclass
class EvalMetrics:
    method: str
    ppl: float
    mean_ce: float
    mean_sparsity: float
    flops: FlopsReport
    settings: dict = field(default_factory=dict)


def _baseline_scale(bundle: CheckpointBundle, method: str, k: int, keep_fraction: float,
                    seed: int):
    """The `forward_lm` ffn_scale selector of a baseline method; None for dense."""
    cfg = bundle.config
    if method == "dense":
        return None
    if method == "dejavu":
        return lambda i, x, a: routing.magnitude_select(a, keep_fraction)
    if method == "moefication_gt":
        return lambda i, x, a: routing.groundtruth_topk_select(a, cfg.n_experts, k)
    # frozen random routers, one per layer, drawn from the method's own seed label
    label, select = {"random_router": ("rr", routing.random_topk_select),
                     "noisy_topk": ("topk", routing.noisy_topk_select)}[method]
    routers = [routing.router_init(cfg.d_model, cfg.n_experts, Rng(seed).split(f"{label}{i}"),
                                   std=1.0 / math.sqrt(cfg.d_model))
               for i in range(cfg.n_layers)]
    return lambda i, x, a: select(routers[i], x, k)


def evaluate(bundle: CheckpointBundle, windows: list[np.ndarray], method: str,
             tau: float = 0.5, k: int = 1, keep_fraction: float = 1.0,
             seed: int = 0) -> EvalMetrics:
    """Validation perplexity + sparsity + FLOPs for one routing method.

    Sparsity and FLOPs come from the masks the method applied; a per-neuron
    mask counts expert_size neurons as one expert. Dense applies none and
    keeps every expert.
    """
    cfg = bundle.config
    if method not in EVAL_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {EVAL_METHODS}")
    if method == "lte" and bundle.routers is None:
        raise ValueError("method 'lte' needs a checkpoint with routers")
    if method in ("lte", "moefication_gt", "random_router", "noisy_topk") and bundle.partitions is None:
        raise ValueError(f"method {method!r} needs a moefied checkpoint")

    if method == "lte":
        mean_ce, _, masks = collect_decisions(bundle, windows, tau)
    else:
        scale = _baseline_scale(bundle, method, k, keep_fraction, seed)
        mean_ce, _, masks = _eval_pass(bundle, windows, ffn_scale=scale)
    if masks:
        sparsity = float(np.mean([1.0 - m.mean() for m in masks]))
        selected = [float(m.sum(axis=1).mean()) / (m.shape[1] // cfg.n_experts) for m in masks]
    else:
        sparsity, selected = 0.0, float(cfg.n_experts)
    flops = sparse_exec.flops_per_token(cfg, selected, router=method in ROUTED)
    args = {"tau": tau, "k": k, "keep_fraction": keep_fraction, "seed": seed}
    settings = {name: args[name] for name in METHOD_SETTINGS[method]}
    return EvalMetrics(method, losses.perplexity(mean_ce), mean_ce, sparsity, flops, settings)


def eval_record_line(metrics: EvalMetrics, corpus_hash: str, checkpoint_tag: str) -> str:
    """Append-only results-ledger line; trailing field is a content hash."""
    settings = ",".join(f"{k}={v}" for k, v in sorted(metrics.settings.items()))
    fields = [
        checkpoint_tag,
        metrics.method,
        settings or "-",
        f"{metrics.ppl:.8g}",
        f"{metrics.mean_ce:.8g}",
        f"{metrics.mean_sparsity:.8g}",
        f"{metrics.flops.dense_flops_per_token:.8g}",
        f"{metrics.flops.sparse_flops_per_token:.8g}",
        f"{metrics.flops.router_flops_per_token:.8g}",
        blas_threads(),
        corpus_hash[:16],
    ]
    digest = hashlib.sha256("\t".join(fields).encode()).hexdigest()[:16]
    return "\t".join(fields + [digest])


EVAL_LEDGER_HEADER = "\t".join(
    ("checkpoint", "method", "settings", "ppl", "mean_ce", "sparsity",
     "dense_flops", "sparse_flops", "router_flops", "threads", "corpus", "record_hash")
)


# --- report serialization -------------------------------------------------------


def format_report(r: SparsityReport) -> str:
    lines = [
        f"tau\t{r.tau:.6g}",
        f"eval_tokens\t{r.eval_tokens}",
        f"corpus_hash\t{r.corpus_hash}",
        f"stage\t{r.stage}",
        f"threads\t{blas_threads()}",
        f"overall_sparsity\t{r.overall_sparsity:.9g}",
        "",
        "layer\tsparsity\tmean_selected\tmax_mean_score\tscore_entropy",
    ]
    for l, s in enumerate(r.per_layer_sparsity):
        mx, ent = r.concentration[l]
        lines.append(
            f"{l}\t{s:.9g}\t{r.mean_selected_per_layer[l]:.9g}\t{mx:.9g}\t{ent:.9g}"
        )
    lines += ["", "batch_size\t" + "\t".join(f"layer{l}" for l in range(len(r.per_layer_sparsity)))]
    for b in sorted(r.union_by_batch):
        vals = "\t".join(f"{v:.9g}" for v in r.union_by_batch[b])
        lines.append(f"{b}\t{vals}")
    lines += ["", "layer\tbin\tcount"]
    for l in range(r.histograms.shape[0]):
        for b in range(HIST_BINS):
            lines.append(f"{l}\t{b}\t{int(r.histograms[l, b])}")
    return "\n".join(lines) + "\n"


# --- minimal SVG plotter ---------------------------------------------------------


def _svg_bars(values, labels, title: str, width=640, height=360, color="#4477aa") -> str:
    pad, base = 48, height - 40
    vmax = max(max(values), 1e-9)
    n = len(values)
    bw = (width - 2 * pad) / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{base}" x2="{width - pad}" y2="{base}" stroke="#333"/>',
    ]
    for i, v in enumerate(values):
        h = (base - pad) * (v / vmax)
        x = pad + i * bw
        parts.append(
            f'<rect x="{x + 1:.2f}" y="{base - h:.2f}" width="{bw - 2:.2f}" '
            f'height="{h:.2f}" fill="{color}"/>'
        )
        if labels is not None:
            parts.append(
                f'<text x="{x + bw / 2:.2f}" y="{base + 14}" text-anchor="middle" '
                f'font-size="10">{labels[i]}</text>'
            )
    parts.append(
        f'<text x="{pad - 6}" y="{pad}" text-anchor="end" font-size="10">{vmax:.3g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def render_sparsity_svg(r: SparsityReport) -> str:
    labels = [str(l) for l in range(len(r.per_layer_sparsity))]
    return _svg_bars(r.per_layer_sparsity, labels, "per-layer sparsity")


def render_histogram_svg(r: SparsityReport) -> str:
    total = r.histograms.sum(axis=0)
    return _svg_bars(
        [int(c) for c in total], None, "expert score histogram (all layers)",
        color="#cc6644",
    )
