"""Expert-partitioned FFN layers with learned contextual sparsity.

Pipeline: train a tiny dense byte-level LM, partition each FFN's intermediate
neurons into equal-size experts (balanced k-means on gate-projection columns,
or on up-projection columns when the FFN has no gate), attach sigmoid
threshold routers, train routers and model jointly in soft mode under an
efficiency + separability penalty, then freeze routers and adapt the model
to discrete selection. A packed gather execution path runs only the
selected experts; on CPU it does not yet beat the dense FFN on wall time.
"""

from .checkpoint import CheckpointBundle, load_checkpoint, save_checkpoint
from .config import Corpus, RunConfig, load_corpus, make_synthetic_corpus
from .grouping import ExpertPartition, apply_partition, group_experts_kmeans, group_experts_random
from .losses import LossBreakdown, LteHyperparams
from .model import ModelConfig, TransformerParams, forward_lm, init_params
from .numerics import Rng
from .routing import RouterLayer, RoutingDecision, router_init
from .sparse_exec import FlopsReport, PackedExpertWeights, bench, flops_per_token, pack, sparse_ffn_forward
from .training import TrainHyper, TrainingState, run_training

__all__ = [
    "CheckpointBundle",
    "Corpus",
    "ExpertPartition",
    "FlopsReport",
    "LossBreakdown",
    "LteHyperparams",
    "ModelConfig",
    "PackedExpertWeights",
    "RouterLayer",
    "RoutingDecision",
    "Rng",
    "RunConfig",
    "TrainHyper",
    "TrainingState",
    "TransformerParams",
    "apply_partition",
    "bench",
    "flops_per_token",
    "forward_lm",
    "group_experts_kmeans",
    "group_experts_random",
    "init_params",
    "load_checkpoint",
    "load_corpus",
    "make_synthetic_corpus",
    "pack",
    "router_init",
    "run_training",
    "save_checkpoint",
    "sparse_ffn_forward",
]

__version__ = "0.1.0"
