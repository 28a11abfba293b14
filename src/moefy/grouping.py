"""Partition FFN intermediate neurons into equal-size experts.

Balanced k-means on the columns of the `gate` role when the layer has one,
else of the `up` role, plus a random-chop baseline, and the weight
permutation that makes each expert's neurons contiguous so the sparse
execution path can gather whole slabs. The permutation reorders a block's
parameters in place, each role along its d_ffn axis (`model.D_FFN_AXIS`).
`order_experts_by_rate` then relabels a partitioned block's experts, most
often selected first, so that the experts a call selects lie in few runs of
adjacent slabs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import D_FFN_AXIS, TransformerParams, ffn_param_names
from .numerics import Rng

KMEANS_MAX_ITERS = 50


@dataclass
class ExpertPartition:
    layer_index: int
    n_experts: int
    expert_size: int
    # new position -> old neuron index; expert e is block e, positions
    # [e * expert_size, (e + 1) * expert_size), so it also fixes `assignment`
    permutation: np.ndarray
    method: str              # kmeans | random
    sse_history: list = field(default_factory=list)

    @property
    def assignment(self) -> np.ndarray:
        """Neuron index -> expert id: the block of `permutation` that holds the neuron."""
        return np.argsort(self.permutation) // self.expert_size

    def validate(self) -> "ExpertPartition":
        d = self.n_experts * self.expert_size
        if not np.array_equal(np.sort(self.permutation), np.arange(d)):
            raise ValueError(f"permutation is not a bijection of range({d})")
        return self


def partition_sse(features: np.ndarray, assignment: np.ndarray, n_experts: int) -> float:
    """Within-cluster sum of squares, centroids = cluster means."""
    sse = 0.0
    for e in range(n_experts):
        members = features[assignment == e]
        c = members.mean(axis=0)
        sse += float(((members - c) ** 2).sum())
    return sse


def _greedy_balanced_assign(dist: np.ndarray, capacity: int) -> np.ndarray:
    """Assign each neuron to a centroid, cheapest (neuron, centroid) pairs first.

    Stable sort on the flattened distance matrix breaks ties by lower neuron
    index, then lower centroid index. The walk reads plain lists, which
    Python indexes faster than arrays.
    """
    d_ffn, n_experts = dist.shape
    neurons, experts = np.divmod(np.argsort(dist.ravel(), kind="stable"), n_experts)
    assignment = [-1] * d_ffn
    room = [capacity] * n_experts
    placed = 0
    for neuron, expert in zip(neurons.tolist(), experts.tolist()):
        if assignment[neuron] >= 0 or room[expert] == 0:
            continue
        assignment[neuron] = expert
        room[expert] -= 1
        placed += 1
        if placed == d_ffn:
            break
    return np.array(assignment, dtype=np.int64)


def group_experts_kmeans(
    features: np.ndarray,
    n_experts: int,
    rng: Rng,
    layer_index: int = 0,
) -> ExpertPartition:
    """Capacity-constrained k-means: exactly d_ffn / n_experts neurons per expert.

    Centroids start at n_experts distinct sampled neurons; each iteration
    greedily assigns by ascending squared distance under the capacity, then
    recomputes centroids. Stops when the assignment repeats, after
    KMEANS_MAX_ITERS iterations, or when a greedy step would raise the
    objective (keeps SSE history non-increasing).
    """
    features = np.asarray(features, dtype=np.float64)
    d_ffn = features.shape[0]
    if d_ffn % n_experts != 0:
        raise ValueError(f"n_experts {n_experts} does not divide d_ffn {d_ffn}")
    capacity = d_ffn // n_experts

    seeds = rng.choice(d_ffn, n_experts, replace=False)
    centroids = features[np.sort(seeds)].copy()
    best_assignment = None
    history: list[float] = []

    sq_feat = (features * features).sum(axis=1, keepdims=True)
    for _ in range(KMEANS_MAX_ITERS):
        dist = sq_feat - 2.0 * features @ centroids.T + (centroids * centroids).sum(axis=1)
        np.maximum(dist, 0.0, out=dist)
        assignment = _greedy_balanced_assign(dist, capacity)
        if best_assignment is not None and (assignment == best_assignment).all():
            break
        sse = partition_sse(features, assignment, n_experts)
        if history and sse > history[-1] + 1e-12 * max(1.0, history[-1]):
            break  # greedy step would regress; keep the best assignment
        history.append(sse)
        best_assignment = assignment
        for e in range(n_experts):
            centroids[e] = features[assignment == e].mean(axis=0)

    return ExpertPartition(
        layer_index=layer_index,
        n_experts=n_experts,
        expert_size=capacity,
        # stable sort keeps neurons ordered by index within each expert
        permutation=np.argsort(best_assignment, kind="stable"),
        method="kmeans",
        sse_history=history,
    ).validate()


def group_experts_random(
    d_ffn: int, n_experts: int, rng: Rng, layer_index: int = 0
) -> ExpertPartition:
    """Uniform random permutation chopped into consecutive equal blocks."""
    if d_ffn % n_experts != 0:
        raise ValueError(f"n_experts {n_experts} does not divide d_ffn {d_ffn}")
    capacity = d_ffn // n_experts
    return ExpertPartition(
        layer_index=layer_index,
        n_experts=n_experts,
        expert_size=capacity,
        permutation=rng.permutation(d_ffn).astype(np.int64),
        method="random",
    ).validate()


def apply_partition(params: TransformerParams, i: int, p: ExpertPartition) -> None:
    """Reorder block i's hidden units in place so each expert's slice is
    contiguous (a pure permutation).

    Every FFN role with a d_ffn axis is reordered by `p.permutation`; `b2`
    has none and is left as it is.
    """
    perm = p.permutation
    d_ffn = params.config.d_ffn
    if d_ffn != perm.shape[0]:
        raise ValueError(f"permutation length {perm.shape[0]} != d_ffn {d_ffn}")
    for role, name in ffn_param_names(params.config, i).items():
        if role in D_FFN_AXIS:
            w = params[name].data
            w[...] = np.take(w, perm, axis=D_FFN_AXIS[role])


def order_experts_by_rate(params: TransformerParams, i: int, p: ExpertPartition,
                          wg: np.ndarray, mask: np.ndarray) -> ExpertPartition:
    """Relabel block i's experts in descending order of the rate at which the
    rows of the (rows, n_experts) bool `mask` select them, ties by expert
    index, and return the partition composed with the relabeling.

    One block permutation of the hidden units moves every FFN role
    (`apply_partition`) and the columns of the router weights `wg` (d_model,
    n_experts), in place, so every selection is the same set of experts under
    new labels. The union kernel makes one product per run of adjacent union
    experts, so putting the most selected experts together makes few runs.
    """
    if mask.shape[1:] != (p.n_experts,) or wg.shape[1:] != (p.n_experts,):
        raise ValueError(f"mask {mask.shape} and router {wg.shape} for {p.n_experts} experts")
    order = np.argsort(-mask.mean(axis=0), kind="stable")
    units = (order[:, None] * p.expert_size + np.arange(p.expert_size)).reshape(-1)
    apply_partition(params, i, replace(p, permutation=units))
    wg[...] = wg[:, order]
    return replace(p, permutation=p.permutation[units]).validate()
