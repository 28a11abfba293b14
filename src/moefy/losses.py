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

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor


@dataclass
class LteHyperparams:
    """Coefficients of the router-training objective."""

    eta: float = 1.0          # efficiency weight; larger -> sparser model
    lam: float = 0.5          # separability weight
    tau: float = 0.5          # selection threshold, shared by all routers
    denom_guard: float = 1e-3  # floor on (score - tau)^2 in the separability term

    def validate(self) -> "LteHyperparams":
        for key in ("eta", "lam"):
            if not (math.isfinite(getattr(self, key)) and getattr(self, key) >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0,1), got {self.tau}")
        if not (math.isfinite(self.denom_guard) and self.denom_guard > 0):
            raise ValueError(f"denom_guard must be finite and > 0, got {self.denom_guard}")
        return self


@dataclass
class LossBreakdown:
    task: float
    efficiency: float
    separability: float
    total: float
    mean_score_per_layer: list = field(default_factory=list)
    grad_norm: float = 0.0    # pre-clip L2 norm of the step's gradients


def task_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token cross-entropy, in float64, through the graph's cross-entropy."""
    return Tensor(logits.astype(np.float64)).cross_entropy_mean(targets).item()


def perplexity(mean_ce: float) -> float:
    return float(np.exp(mean_ce))


def aux_loss_graph(per_layer_scores: list[Tensor],
                   hp: LteHyperparams) -> tuple[Tensor, Tensor]:
    """(efficiency, separability) as graph nodes.

    per_layer_scores[l] is layer l's (B*T, n_experts) score tensor; each term
    is the mean over its entries, and layers are averaged with equal weight.
    """
    if not per_layer_scores:
        raise ValueError("no score tensors")
    inv_l = 1.0 / len(per_layer_scores)
    eff = None
    sep = None
    for g in per_layer_scores:
        e_term = g.square().mean() * inv_l
        s_term = (g + (-hp.tau)).square().clamp_min(hp.denom_guard).reciprocal().mean() * inv_l
        eff = e_term if eff is None else eff + e_term
        sep = s_term if sep is None else sep + s_term
    return eff, sep
