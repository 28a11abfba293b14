"""Expert selection: sigmoid threshold routers, soft mode, and oracle baselines.

The learned router is a single linear map producing one score per expert
through a sigmoid, thresholded at tau for discrete selection. Routing only
chooses the per-expert scale that `model.ffn_out` applies to the FFN hidden
layer: soft mode passes the scores (differentiable; used while the routers
learn), discrete mode a constant 0/1 mask. Without a graph, discrete mode
runs the packed gather kernel instead. Baselines pick their own constant
scale: noisy top-k softmax weights, per-neuron magnitude keep (exact-value
stand-in for a trained predictor), ground-truth expert top-k, and frozen
random routers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import numerics, sparse_exec
from .autograd import Tensor, param
from .model import TransformerParams, ffn_hidden, ffn_out
from .numerics import F32, Rng, ShapeError


@dataclass
class RouterLayer:
    Wg: Tensor                      # (d_model, n_experts), one column per expert
    frozen: bool = False

    @property
    def n_experts(self) -> int:
        return self.Wg.data.shape[1]


@dataclass
class RoutingDecision:
    scores: np.ndarray   # (T, n_experts), each strictly in (0, 1)
    mask: np.ndarray     # (T, n_experts) bool
    mode: str            # soft | discrete
    tau: Optional[float] = None

    @property
    def selected_per_token(self) -> np.ndarray:
        return self.mask.sum(axis=1)


def router_init(d_model: int, n_experts: int, rng: Rng, std: Optional[float] = None,
                dtype=F32) -> RouterLayer:
    """Fresh router; the default scale keeps initial scores clustered near 0.5."""
    if std is None:
        std = 0.02 / math.sqrt(d_model)
    return RouterLayer(Wg=param(rng.normal((d_model, n_experts), std=std, dtype=dtype)))


def router_scores(router: RouterLayer, x: np.ndarray, threads: int = 1) -> np.ndarray:
    if x.shape[1] != router.Wg.data.shape[0]:
        raise ShapeError(f"x width {x.shape[1]} != router input {router.Wg.data.shape[0]}")
    return numerics.sigmoid(numerics.matmul(x, router.Wg.data, threads=threads))


# --- learned sigmoid routing ---------------------------------------------------


def moe_forward_discrete(layer, partition, router: RouterLayer, x: np.ndarray,
                         tau: float = 0.5, packed=None,
                         threads: int = 1) -> tuple[np.ndarray, RoutingDecision]:
    """Threshold selection (score strictly above tau) over the gather path."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0,1), got {tau}")
    scores = router_scores(router, x, threads=threads)
    mask = scores > tau
    if packed is None:
        lay = layer if layer.partition is not None else replace(layer, partition=partition)
        packed = sparse_exec.pack(lay)
    # np.nonzero walks row-major, so each token's ids come out sorted ascending
    _, ids = np.nonzero(mask)
    selections = np.split(ids, np.cumsum(mask.sum(axis=1)))[:-1]
    y = sparse_exec.sparse_ffn_forward(packed, selections, x)
    return y, RoutingDecision(scores=scores, mask=mask, mode="discrete", tau=tau)


def soft_ffn_graph(params: TransformerParams, i: int, router: RouterLayer, xf: Tensor,
                   threads: int = 1) -> tuple[Tensor, Tensor, RoutingDecision]:
    """Every expert runs, scaled by its score; returns (ffn_out, score_tensor, decision)."""
    g = xf.matmul(router.Wg, threads=threads).sigmoid()
    out = ffn_out(params, i, ffn_hidden(params, i, xf, threads), g, threads=threads)
    dec = RoutingDecision(scores=g.data.copy(), mask=np.ones_like(g.data, dtype=bool), mode="soft")
    return out, g, dec


def discrete_ffn_graph(params: TransformerParams, i: int, router: RouterLayer, xf: Tensor,
                       tau: float, threads: int = 1) -> tuple[Tensor, RoutingDecision]:
    """Masked-dense graph for adaptation training.

    The selection indicator is piecewise constant in the inputs, so it enters
    the graph as a constant scale: gradients flow only through selected
    experts' weights.
    """
    scores = router_scores(router, xf.data, threads=threads)
    mask = scores > tau
    a = ffn_hidden(params, i, xf, threads)
    out = ffn_out(params, i, a, Tensor(mask.astype(a.dtype)), threads=threads)
    return out, RoutingDecision(scores=scores, mask=mask, mode="discrete", tau=tau)


# --- baselines -----------------------------------------------------------------


def _topk_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest entries per row; ties keep lower index."""
    order = np.argsort(-values, axis=1, kind="stable")[:, :k]
    mask = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(mask, order, True, axis=1)
    return mask


def noisy_topk_forward(params: TransformerParams, i: int, router: RouterLayer, x: np.ndarray,
                       k: int, noise_std: float = 0.0, rng: Optional[Rng] = None,
                       threads: int = 1) -> tuple[np.ndarray, RoutingDecision]:
    """Top-k softmax routing; Gaussian logit noise during training only."""
    n = router.n_experts
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    logits = numerics.matmul(x, router.Wg.data, threads=threads)
    if noise_std > 0:
        if rng is None:
            raise ValueError("noise_std > 0 requires an rng")
        logits = logits + rng.normal(logits.shape, std=noise_std, dtype=logits.dtype)
    mask = _topk_rows(logits, k)
    kept = np.where(mask, logits, -np.inf)
    m = kept.max(axis=1, keepdims=True)
    expw = np.exp(kept - m)
    weights = expw / expw.sum(axis=1, keepdims=True)
    a = ffn_hidden(params, i, Tensor(x), threads)
    y = ffn_out(params, i, a, Tensor(weights.astype(a.dtype)), threads=threads).data
    return y, RoutingDecision(scores=weights, mask=mask, mode="discrete")


def magnitude_select(params: TransformerParams, i: int, x: np.ndarray, keep_fraction: float,
                     threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Keep the largest-|value| hidden neurons per token, zero the rest.

    Exact-value oracle: the true activations stand in for a trained predictor,
    giving this baseline its best case. Returns (output, neuron mask).
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    a = ffn_hidden(params, i, Tensor(x), threads)
    n_keep = math.ceil(keep_fraction * a.shape[1])
    mask = _topk_rows(np.abs(a.data), n_keep)
    return ffn_out(params, i, a, Tensor(mask.astype(a.dtype)), threads=threads).data, mask


def groundtruth_topk_select(params: TransformerParams, i: int, x: np.ndarray, k: int,
                            threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Score experts by the L2 norm of their true hidden slice, keep top-k."""
    cfg = params.config
    n = cfg.n_experts
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    a = ffn_hidden(params, i, Tensor(x), threads)
    norms = np.sqrt((a.data * a.data).reshape(a.shape[0], n, cfg.expert_size).sum(axis=2))
    mask = _topk_rows(norms, k)
    return ffn_out(params, i, a, Tensor(mask.astype(a.dtype)), threads=threads).data, mask


@dataclass
class RandomTopKRouter:
    router: RouterLayer
    k: int


def random_router_init(d_model: int, n_experts: int, k: int, rng: Rng) -> RandomTopKRouter:
    """Frozen random router; selection is top-k scores per token."""
    if not 1 <= k <= n_experts:
        raise ValueError(f"k={k} out of range [1, {n_experts}]")
    r = router_init(d_model, n_experts, rng, std=1.0 / math.sqrt(d_model))
    r.frozen = True
    return RandomTopKRouter(router=r, k=k)


def random_topk_forward(params: TransformerParams, i: int, rr: RandomTopKRouter, x: np.ndarray,
                        threads: int = 1) -> tuple[np.ndarray, RoutingDecision]:
    scores = router_scores(rr.router, x, threads=threads)
    mask = _topk_rows(scores, rr.k)
    a = ffn_hidden(params, i, Tensor(x), threads)
    y = ffn_out(params, i, a, Tensor(mask.astype(a.dtype)), threads=threads).data
    return y, RoutingDecision(scores=scores, mask=mask, mode="discrete")
