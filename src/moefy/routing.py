"""Expert selection: sigmoid threshold routers, soft mode, and oracle baselines.

The learned router is a single linear map producing one score per expert
through a sigmoid, thresholded at tau for discrete selection. Soft mode passes
the scores as the per-expert scale that `model.ffn_out` applies to the FFN
hidden layer (differentiable; used while the routers learn). Discrete mode
takes a constant bool mask from `threshold_select` and hands it to the union
kernel, whose one selection format it is: in a graph, as one op over the
parameters themselves (`sparse_exec.sparse_ffn_graph`); without a graph, over
the `model.FfnLayer` slabs the caller packed once, through
`sparse_exec._union_ffn` rather than `sparse_ffn_forward`, whose calls
perfbench's trace counts as id lists.
Baselines only pick a constant scale for `forward_lm` to apply: noisy top-k
softmax weights and frozen random routers rank the block input, per-neuron
magnitude keep (exact-value stand-in for a trained predictor) and ground-truth
expert top-k the hidden layer. Each returns (scale, RoutingDecision) whose
mask is the selection it applied, so eval measures all methods from their
masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics, sparse_exec
from .autograd import Tensor, param
from .model import FfnLayer, TransformerParams, ffn_hidden, ffn_out
from .numerics import F32, Rng, ShapeError


@dataclass
class RouterLayer:
    Wg: Tensor                      # (d_model, n_experts), one column per expert


@dataclass
class RoutingDecision:
    scores: np.ndarray   # (T, m): router scores in (0, 1), or the values a baseline ranked
    mask: np.ndarray     # (T, m) bool, the selection applied; m = n_experts, or d_ffn per neuron


def router_init(d_model: int, n_experts: int, rng: Rng, std: Optional[float] = None,
                dtype=F32) -> RouterLayer:
    """Fresh router; the default scale keeps initial scores clustered near 0.5."""
    if std is None:
        std = 0.02 / math.sqrt(d_model)
    return RouterLayer(Wg=param(rng.normal((d_model, n_experts), std=std, dtype=dtype)))


def router_scores(router: RouterLayer, x: np.ndarray) -> np.ndarray:
    if x.shape[1] != router.Wg.data.shape[0]:
        raise ShapeError(f"x width {x.shape[1]} != router input {router.Wg.data.shape[0]}")
    return numerics.sigmoid(numerics.matmul(x, router.Wg.data))


# --- learned sigmoid routing ---------------------------------------------------


def threshold_select(router: RouterLayer, x: np.ndarray, tau: float) -> RoutingDecision:
    """The learned selection rule: each expert whose score is strictly above tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0,1), got {tau}")
    scores = router_scores(router, x)
    return RoutingDecision(scores=scores, mask=scores > tau)


def moe_forward_discrete(packed: FfnLayer, partition, router: RouterLayer, x: np.ndarray,
                         tau: float) -> tuple[np.ndarray, RoutingDecision]:
    """Threshold selection; the router's mask runs the union kernel over one
    layer's packed expert slabs, with no graph.

    The kernel reads only `packed`; `partition`, the ExpertPartition it was
    packed from, names the layer (`layer_index`) to callers that trace it.
    """
    dec = threshold_select(router, x, tau)
    # not sparse_ffn_forward: perfbench's trace reads its args[1] as per-token id arrays
    return sparse_exec._union_ffn(packed, dec.mask, x)[0], dec


def soft_ffn_graph(params: TransformerParams, i: int, router: RouterLayer,
                   xf: Tensor) -> tuple[Tensor, Tensor, RoutingDecision]:
    """Every expert runs, scaled by its score; returns (ffn_out, score_tensor, decision)."""
    g = xf.matmul(router.Wg).sigmoid()
    out = ffn_out(params, i, ffn_hidden(params, i, xf), g)
    dec = RoutingDecision(scores=g.data, mask=np.ones_like(g.data, dtype=bool))
    return out, g, dec


def discrete_ffn_graph(params: TransformerParams, i: int, router: RouterLayer, xf: Tensor,
                       tau: float) -> tuple[Tensor, RoutingDecision]:
    """Threshold selection over the union kernel's graph op, for adaptation training.

    The selection indicator is piecewise constant in the inputs, so it enters
    the graph as a constant mask: gradients flow only through selected
    experts' weights, and experts that no row selected are not computed.
    """
    dec = threshold_select(router, xf.data, tau)
    return sparse_exec.sparse_ffn_graph(params, i, xf, dec.mask), dec


# --- baselines -----------------------------------------------------------------


def _topk_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest entries per row; ties keep lower index."""
    if not 1 <= k <= values.shape[1]:
        raise ValueError(f"k={k} out of range [1, {values.shape[1]}]")
    order = np.argsort(-values, axis=1, kind="stable")[:, :k]
    mask = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(mask, order, True, axis=1)
    return mask


def noisy_topk_select(router: RouterLayer, x: np.ndarray,
                      k: int) -> tuple[np.ndarray, RoutingDecision]:
    """Top-k softmax routing; the scale is the selected experts' softmax weights.

    Noisy top-k adds logit noise only while its router trains; this baseline's
    router is never trained, so it runs noise-free.
    """
    logits = numerics.matmul(x, router.Wg.data)
    mask = _topk_rows(logits, k)
    kept = np.where(mask, logits, -np.inf)
    m = kept.max(axis=1, keepdims=True)
    expw = np.exp(kept - m)
    weights = expw / expw.sum(axis=1, keepdims=True)
    return weights, RoutingDecision(scores=weights, mask=mask)


def magnitude_select(a: np.ndarray, keep_fraction: float) -> tuple[np.ndarray, RoutingDecision]:
    """Keep the ceil(keep_fraction * d_ffn) largest-|value| hidden neurons per token.

    Exact-value oracle: the true activations `a` stand in for a trained
    predictor, giving this baseline its best case. The scale, mask and scores
    are per neuron, (T, d_ffn).
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    mag = np.abs(a)
    mask = _topk_rows(mag, math.ceil(keep_fraction * a.shape[1]))
    return mask, RoutingDecision(scores=mag, mask=mask)


def groundtruth_topk_select(a: np.ndarray, n_experts: int,
                            k: int) -> tuple[np.ndarray, RoutingDecision]:
    """Score experts by the L2 norm of their slice of the true hidden `a`, keep top-k."""
    norms = np.sqrt((a * a).reshape(a.shape[0], n_experts, -1).sum(axis=2))
    mask = _topk_rows(norms, k)
    return mask, RoutingDecision(scores=norms, mask=mask)


def random_topk_select(router: RouterLayer, x: np.ndarray,
                       k: int) -> tuple[np.ndarray, RoutingDecision]:
    """Top-k experts by the sigmoid scores of a frozen random router."""
    scores = router_scores(router, x)
    mask = _topk_rows(scores, k)
    return mask, RoutingDecision(scores=scores, mask=mask)
