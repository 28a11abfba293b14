"""Gradient computation, AdamW, and the staged fine-tuning pipeline.

Stage 1 trains routers and model jointly in soft mode under the combined
objective. Stage 2 freezes the routers, switches to discrete selection, and
fine-tunes the model alone so it adapts to the hard masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autograd import Tensor, no_grad
from .losses import LossBreakdown, LteHyperparams, aux_loss_graph
from .model import TransformerParams, forward_lm
from .numerics import NumericError, Rng
from .routing import RouterLayer

GradientSet = dict[str, np.ndarray]

LOG_COLUMNS = ("step", "task", "efficiency", "separability", "total", "sparsity")


@dataclass
class TrainHyper:
    lr: float = 3e-4
    batch_size: int = 8
    seq_len: int = 64
    warmup_ratio: float = 0.06
    weight_decay: float = 0.0
    clip_norm: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    total_steps: int = 1000

    @property
    def warmup_steps(self) -> int:
        return max(1, math.ceil(self.warmup_ratio * self.total_steps))


@dataclass
class TrainingState:
    params: TransformerParams
    hyper: TrainHyper
    rng: Rng
    stage: str = "base"  # base | stage1 | stage2
    routers: Optional[list[RouterLayer]] = None
    partitions: Optional[list] = None
    aux: Optional[LteHyperparams] = None
    step: int = 0
    threads: int = 1
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def trainable(self) -> dict[str, Tensor]:
        out = dict(self.params.tensors)
        if self.routers is not None and self.stage == "stage1":
            for i, r in enumerate(self.routers):
                if not r.frozen:
                    out[f"router.{i}.Wg"] = r.Wg
        return out

    def zero_grads(self) -> None:
        self.params.zero_grads()
        if self.routers is not None:
            for r in self.routers:
                r.Wg.zero_grad()


def collect_gradients(loss: Tensor, trainable: dict[str, Tensor]) -> GradientSet:
    """Run reverse mode from the loss and harvest leaf gradients."""
    loss.backward()
    grads: GradientSet = {}
    for name, t in trainable.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in {name}")
        grads[name] = g
    return grads


def clip_gradients(grads: GradientSet, max_norm: float) -> float:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def optimizer_step(state: TrainingState, grads: GradientSet) -> None:
    """AdamW with bias correction, decoupled decay, linear warmup then constant lr."""
    h = state.hyper
    t = state.step
    lr_t = h.lr * min(1.0, t / h.warmup_steps)
    bc1 = 1.0 - h.beta1**t
    bc2 = 1.0 - h.beta2**t
    trainable = state.trainable()
    for name, g in grads.items():
        p = trainable[name].data
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m += (1.0 - h.beta1) * (g - m)
        v += (1.0 - h.beta2) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + h.eps)
        p -= (lr_t * update).astype(p.dtype)
        if h.weight_decay > 0:
            p -= (lr_t * h.weight_decay) * p


def sample_batch(data: np.ndarray, rng: Rng, batch_size: int, seq_len: int):
    """Random (inputs, shifted targets) byte windows."""
    if data.shape[0] < seq_len + 2:
        raise ValueError(f"corpus of {data.shape[0]} bytes too small for seq_len {seq_len}")
    starts = rng.integers(0, data.shape[0] - seq_len - 1, size=batch_size)
    xs = [data[s : s + seq_len].astype(np.int64) for s in starts]
    ys = [data[s + 1 : s + seq_len + 1].astype(np.int64) for s in starts]
    return list(zip(xs, ys))


def train_step(state: TrainingState, batch) -> tuple[LossBreakdown, float]:
    """One optimization step; returns the loss breakdown and monitored sparsity.

    Monitored sparsity is the fraction of expert scores at or below tau (the
    complement of discrete selection); 0.0 in dense mode.
    """
    state.step += 1
    state.zero_grads()
    mode = {"base": "dense", "stage1": "moe_soft", "stage2": "moe_discrete"}[state.stage]
    tau = state.aux.tau if state.aux is not None else 0.5

    task = None
    per_layer_scores: list[list[Tensor]] = []
    below = []
    inv_b = 1.0 / len(batch)
    for x, y in batch:
        res = forward_lm(
            state.params, x, ffn_mode=mode, routers=state.routers, tau=tau,
            threads=state.threads,
        )
        ce = res.logits.cross_entropy_mean(y) * inv_b
        task = ce if task is None else task + ce
        if res.decisions is not None:
            scores = (res.score_graph if res.score_graph is not None
                      else [Tensor(dec.scores) for dec in res.decisions])
            if not per_layer_scores:
                per_layer_scores = [[] for _ in scores]
            for l, dec in enumerate(res.decisions):
                per_layer_scores[l].append(scores[l])
                below.append(float((dec.scores <= tau).mean()))

    hp = state.aux if state.aux is not None else LteHyperparams()
    if state.stage == "stage1":
        eff_t, sep_t = aux_loss_graph(per_layer_scores, hp)
        total = task + eff_t * hp.eta + sep_t * hp.lam
        breakdown = LossBreakdown(
            task=task.item(),
            efficiency=eff_t.item(),
            separability=sep_t.item(),
            total=total.item(),
            mean_score_per_layer=[float(np.mean([g.data.mean() for g in layer]))
                                  for layer in per_layer_scores],
        )
    else:
        total = task
        eff = sep = 0.0
        if per_layer_scores:
            with no_grad():
                eff_t, sep_t = aux_loss_graph(per_layer_scores, hp)
            eff, sep = eff_t.item(), sep_t.item()
        breakdown = LossBreakdown(
            task=task.item(), efficiency=eff, separability=sep, total=task.item()
        )

    grads = collect_gradients(total, state.trainable())
    clip_gradients(grads, state.hyper.clip_norm)
    optimizer_step(state, grads)
    sparsity = float(np.mean(below)) if below else 0.0
    return breakdown, sparsity


def format_log_row(step: int, bd: LossBreakdown, sparsity: float) -> str:
    return "\t".join(
        [str(step)]
        + [f"{v:.8g}" for v in (bd.task, bd.efficiency, bd.separability, bd.total, sparsity)]
    )


def run_training(state: TrainingState, data: np.ndarray, steps: int,
                 log_path: Optional[str] = None, checkpoint_every: int = 0,
                 checkpoint_fn=None) -> list[tuple[int, LossBreakdown, float]]:
    """Drive `steps` optimization steps; appends one log record per step.

    checkpoint_fn(step) is invoked every `checkpoint_every` steps when both
    are given (the caller owns the serialization format and path).
    """
    rows = []
    fh = open(log_path, "a") if log_path else None
    try:
        if fh is not None and fh.tell() == 0:
            fh.write("\t".join(LOG_COLUMNS) + "\n")
        for _ in range(steps):
            batch = sample_batch(data, state.rng, state.hyper.batch_size, state.hyper.seq_len)
            bd, sparsity = train_step(state, batch)
            rows.append((state.step, bd, sparsity))
            if fh is not None:
                fh.write(format_log_row(state.step, bd, sparsity) + "\n")
            if checkpoint_every and checkpoint_fn and state.step % checkpoint_every == 0:
                checkpoint_fn(state.step)
    finally:
        if fh is not None:
            fh.close()
    return rows


def run_stage1(state: TrainingState, data: np.ndarray, steps: int,
               log_path: Optional[str] = None, checkpoint_every: int = 0,
               checkpoint_fn=None):
    if state.routers is None or state.aux is None:
        raise ValueError("stage 1 requires routers and aux-loss hyperparams")
    state.stage = "stage1"
    return run_training(state, data, steps, log_path, checkpoint_every, checkpoint_fn)


def run_stage2(state: TrainingState, data: np.ndarray, steps: int,
               log_path: Optional[str] = None, checkpoint_every: int = 0,
               checkpoint_fn=None):
    if state.routers is None:
        raise ValueError("stage 2 requires routers")
    state.stage = "stage2"
    for r in state.routers:
        r.frozen = True
    return run_training(state, data, steps, log_path, checkpoint_every, checkpoint_fn)
