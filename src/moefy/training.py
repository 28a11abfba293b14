"""Gradient computation, Adam, and the one training loop of every stage.

`STAGES` says what each stage does. The dense base trains the model alone.
Stage 1 trains routers and model jointly in soft mode under the combined
objective. Stage 2 freezes the routers, switches to discrete selection, and
fine-tunes the model alone so it adapts to the hard masks. `run_training`
runs any of them.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autograd import Tensor
from .losses import LossBreakdown, LteHyperparams, aux_loss_graph
from .model import TransformerParams, forward_lm
from .numerics import NumericError, Rng
from .routing import RouterLayer

GradientSet = dict[str, np.ndarray]

# Adam moment decay rates and denominator floor
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
WARMUP_RATIO = 0.06  # share of a stage's steps over which lr ramps up linearly
CLIP_NORM = 1.0      # global gradient-norm clip

LOG_COLUMNS = ("step", "task", "efficiency", "separability", "total", "sparsity", "grad_norm")


@dataclass(frozen=True)
class Stage:
    ffn_mode: str            # forward_lm's FFN mode
    needs: Optional[str]     # stage tag of the checkpoint the stage starts from
    objective: bool          # train the routers under task + eta*eff + lam*sep


STAGES = {
    "base": Stage("dense", None, False),
    "stage1": Stage("moe_soft", "moefied", True),
    "stage2": Stage("moe_discrete", "stage1", False),
}


@dataclass
class TrainHyper:
    lr: float = 3e-4
    batch_size: int = 8
    seq_len: int = 64
    total_steps: int = 1000

    def validate(self) -> "TrainHyper":
        for key in ("batch_size", "seq_len"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        return self

    @property
    def warmup_steps(self) -> int:
        return max(1, math.ceil(WARMUP_RATIO * self.total_steps))


@dataclass
class TrainingState:
    params: TransformerParams
    hyper: TrainHyper
    rng: Rng
    stage: str = "base"  # a key of STAGES
    routers: Optional[list[RouterLayer]] = None
    aux: LteHyperparams = field(default_factory=LteHyperparams)
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def trainable(self) -> dict[str, Tensor]:
        """The model's tensors, plus the routers where the stage trains the objective."""
        stage = STAGES[self.stage]
        if stage.ffn_mode != "dense" and self.routers is None:
            raise ValueError(f"{self.stage} requires routers")
        out = dict(self.params.tensors)
        if stage.objective:
            for i, r in enumerate(self.routers):
                out[f"router.{i}.Wg"] = r.Wg
        return out


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
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def optimizer_step(state: TrainingState, grads: GradientSet) -> None:
    """Adam with bias correction, linear warmup then constant lr; no weight decay."""
    h = state.hyper
    t = state.step
    lr_t = h.lr * min(1.0, t / h.warmup_steps)
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    trainable = state.trainable()
    for name, g in grads.items():
        p = trainable[name].data
        if name not in state.m:  # not setdefault: it would fill new zeros every step
            state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        # m += (1 - BETA1) * (g - m); v += (1 - BETA2) * (g * g - v);
        # p -= lr_t * (m / bc1) / (sqrt(v / bc2) + ADAM_EPS), in that order
        s = np.subtract(g, m)
        np.multiply(1.0 - BETA1, s, out=s)
        m += s
        np.multiply(g, g, out=s)
        np.subtract(s, v, out=s)
        np.multiply(1.0 - BETA2, s, out=s)
        v += s
        np.true_divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        np.add(s, ADAM_EPS, out=s)
        update = np.true_divide(m, bc1)
        np.true_divide(update, s, out=update)
        p -= np.multiply(lr_t, update, out=update)


def sample_batch(data: np.ndarray, rng: Rng, batch_size: int, seq_len: int):
    """Random byte windows as (inputs, shifted targets), each a (B, T) int64 array."""
    if data.shape[0] < seq_len + 2:
        raise ValueError(f"corpus of {data.shape[0]} bytes too small for seq_len {seq_len}")
    starts = rng.integers(0, data.shape[0] - seq_len - 1, size=batch_size)
    windows = data[starts[:, None] + np.arange(seq_len + 1)].astype(np.int64)
    return windows[:, :-1], windows[:, 1:]


def train_step(state: TrainingState, batch) -> tuple[LossBreakdown, float]:
    """One optimization step; returns the loss breakdown and monitored sparsity.

    The batch's (B, T) inputs run as one forward pass in the stage's FFN mode;
    the task loss is the mean cross-entropy over all B*T targets. A routed
    stage reports the efficiency and separability terms, and adds them to the
    total only where the stage trains the router objective. Monitored
    sparsity is the fraction of expert scores at or below tau (the complement
    of discrete selection), averaged over layers; 0.0 in dense mode.
    """
    state.step += 1
    stage = STAGES[state.stage]
    trainable = state.trainable()
    for t in trainable.values():
        t.zero_grad()
    hp = state.aux

    xs, ys = batch
    res = forward_lm(state.params, xs, ffn_mode=stage.ffn_mode, routers=state.routers,
                     tau=hp.tau)
    task = res.logits.cross_entropy_mean(ys.reshape(-1))
    total, scores = task, []
    eff = sep = sparsity = 0.0
    if res.decisions is not None:
        # discrete-mode scores are numpy constants, so their aux terms build no graph
        scores = (res.score_graph if res.score_graph is not None
                  else [Tensor(dec.scores) for dec in res.decisions])
        eff_t, sep_t = aux_loss_graph(scores, hp)
        if stage.objective:
            total = task + eff_t * hp.eta + sep_t * hp.lam
        eff, sep = eff_t.item(), sep_t.item()
        sparsity = float(np.mean([float((dec.scores <= hp.tau).mean())
                                  for dec in res.decisions]))
    breakdown = LossBreakdown(
        task=task.item(), efficiency=eff, separability=sep, total=total.item(),
        mean_score_per_layer=[float(g.data.mean()) for g in scores],
    )

    grads = collect_gradients(total, trainable)
    breakdown.grad_norm = clip_gradients(grads, CLIP_NORM)
    optimizer_step(state, grads)
    return breakdown, sparsity


def format_log_row(step: int, bd: LossBreakdown, sparsity: float) -> str:
    return "\t".join(
        [str(step)]
        + [f"{v:.8g}" for v in (bd.task, bd.efficiency, bd.separability, bd.total, sparsity,
                                 bd.grad_norm)]
    )


def run_training(state: TrainingState, data: np.ndarray, steps: int,
                 log_path: Optional[str] = None, checkpoint_every: int = 0,
                 checkpoint_fn=None) -> list[tuple[int, LossBreakdown, float]]:
    """Drive `steps` optimization steps of `state.stage`; logs one record per step.

    The log at `log_path` is written fresh: a header, then this run's rows.
    checkpoint_fn(step) is invoked every `checkpoint_every` steps when both
    are given (the caller owns the serialization format and path).
    """
    rows = []
    with open(log_path, "w") if log_path else nullcontext() as fh:
        if fh is not None:
            fh.write("\t".join(LOG_COLUMNS) + "\n")
        for _ in range(steps):
            batch = sample_batch(data, state.rng, state.hyper.batch_size, state.hyper.seq_len)
            bd, sparsity = train_step(state, batch)
            rows.append((state.step, bd, sparsity))
            if fh is not None:
                fh.write(format_log_row(state.step, bd, sparsity) + "\n")
            if checkpoint_every and checkpoint_fn and state.step % checkpoint_every == 0:
                checkpoint_fn(state.step)
    return rows
