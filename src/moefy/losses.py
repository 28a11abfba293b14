"""Task cross-entropy plus the two router-shaping penalties.

The efficiency term is the mean squared expert score across layers: pushing
it down starves unimportant experts of score mass. The separability term is
the inverse squared distance of each score from the threshold, guarded by a
small floor so the singularity at score == tau cannot dominate; it repels
scores from the threshold so discrete selection is crisp. Both exist once,
as graph nodes (`aux_loss_graph`); under `autograd.no_grad()` the same code
gives the plain values that the stage-2 log reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .numerics import ShapeError


@dataclass
class LteHyperparams:
    """Coefficients of the router-training objective."""

    eta: float = 1.0          # efficiency weight; larger -> sparser model
    lam: float = 0.5          # separability weight
    tau: float = 0.5          # selection threshold, shared by all routers
    denom_guard: float = 1e-3  # floor on (score - tau)^2 in the separability term

    def validate(self) -> "LteHyperparams":
        if self.eta < 0 or self.lam < 0:
            raise ValueError(f"eta and lam must be >= 0, got {self.eta}, {self.lam}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0,1), got {self.tau}")
        if self.denom_guard <= 0:
            raise ValueError(f"denom_guard must be > 0, got {self.denom_guard}")
        return self


@dataclass
class LossBreakdown:
    task: float
    efficiency: float
    separability: float
    total: float
    mean_score_per_layer: list = field(default_factory=list)


def task_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token cross-entropy with a stable log-sum-exp."""
    targets = np.asarray(targets)
    if logits.shape[0] != targets.shape[0]:
        raise ShapeError(f"{targets.shape[0]} targets for {logits.shape[0]} logit rows")
    x = logits.astype(np.float64)
    m = x.max(axis=1, keepdims=True)
    lse = m.squeeze(1) + np.log(np.exp(x - m).sum(axis=1))
    return float((lse - x[np.arange(x.shape[0]), targets]).mean())


def perplexity(mean_ce: float) -> float:
    return float(np.exp(mean_ce))


def aux_loss_graph(per_layer_scores: list[list[Tensor]],
                   hp: LteHyperparams) -> tuple[Tensor, Tensor]:
    """(efficiency, separability) as graph nodes.

    per_layer_scores[l] holds one score tensor per sequence in the batch for
    layer l; sequences share a length, so the batch token-mean is the mean of
    per-sequence means, and layers are averaged with equal weight.
    """
    if not per_layer_scores or not per_layer_scores[0]:
        raise ValueError("no score tensors")
    inv_l = 1.0 / len(per_layer_scores)
    eff = None
    sep = None
    for layer_scores in per_layer_scores:
        inv_b = 1.0 / len(layer_scores)
        for g in layer_scores:
            e_term = g.square().mean() * (inv_l * inv_b)
            s_term = (
                (g + (-hp.tau)).square().clamp_min(hp.denom_guard).reciprocal().mean()
                * (inv_l * inv_b)
            )
            eff = e_term if eff is None else eff + e_term
            sep = s_term if sep is None else sep + s_term
    return eff, sep
