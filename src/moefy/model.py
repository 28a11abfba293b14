"""Tiny decoder-only byte-level LM whose FFN layers get partitioned into experts.

Parameters live in a flat name -> autograd Tensor dict so the optimizer,
checkpoint format, and gradient checks all see one canonical storage. The
forward pass builds an autograd graph; under `autograd.no_grad()` the same
code runs as plain numpy evaluation. The dense FFN is written once, as
`ffn_hidden` then `ffn_out`: soft-routed and baseline FFNs differ from it
only in the per-expert (or per-neuron) scale passed to `ffn_out`. Discrete
selection runs the union kernel of `sparse_exec` instead, in a graph or not.

`FFN_LAYOUTS` is the one place that knows how an FFN kind lays out its
weights: it maps each weight role (up, gate, down, b1, b2) to the parameter
suffix, in checkpoint order. Everything else reads roles, never the kind.
`get_ffn_layer` gives one block's FFN weights as `FfnLayer` expert slabs,
the layout the union kernel reads, as views of the parameters themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numerics
from .autograd import Tensor, causal_bias, grad_enabled, param
from .numerics import F32, ShapeError

# weight role -> parameter suffix of block{i}.ffn, in checkpoint order
FFN_LAYOUTS = {
    "two_matmul": {"up": "W1", "b1": "b1", "down": "W2", "b2": "b2"},
    "swiglu": {"gate": "Wgate", "up": "Wup", "down": "Wdown"},
}
# the axis of each role that runs over the d_ffn hidden units; b2 has none
D_FFN_AXIS = {"up": 1, "gate": 1, "down": 0, "b1": 0}


def _slab_view(w: np.ndarray, axis: int, n: int, e: int) -> np.ndarray:
    """A view of `w` with its d_ffn axis moved to the front and split into (n, e)."""
    w = np.moveaxis(w, axis, 0)
    return w.reshape((n, e) + w.shape[1:])


def _unslab(g: np.ndarray, axis: int) -> np.ndarray:
    """The inverse of `_slab_view`: an (n, e, ...) array in its role's own layout."""
    return np.moveaxis(g.reshape((-1,) + g.shape[2:]), 0, axis)


@dataclass
class ModelConfig:
    vocab_size: int = 256
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 4
    d_ffn: int = 512
    max_seq_len: int = 256
    ffn_kind: str = "two_matmul"
    activation: str = "gelu_tanh"
    expert_size: int = 16

    def validate(self) -> "ModelConfig":
        for key in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ffn", "expert_size",
                    "max_seq_len"):
            if type(getattr(self, key)) is not int:
                raise ValueError(f"{key} must be an int, got {getattr(self, key)!r}")
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_ffn % self.expert_size != 0:
            raise ValueError(f"d_ffn {self.d_ffn} not divisible by expert_size {self.expert_size}")
        if self.ffn_kind not in FFN_LAYOUTS:
            raise ValueError(f"unknown ffn_kind {self.ffn_kind!r}")
        if self.activation not in numerics.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if "gate" in FFN_LAYOUTS[self.ffn_kind]:
            self.activation = "silu"  # a gated FFN gates with silu, so it records silu
        return self

    @property
    def n_experts(self) -> int:
        return self.d_ffn // self.expert_size

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class FfnLayer:
    """One block's FFN weights as expert slabs, the layout the union kernel reads.

    Each role with a d_ffn axis has it moved to the front and split into
    experts (`_slab_view`): `up`, `gate` and `down` are (n_experts,
    expert_size, d_model) and `b1` is (n_experts, expert_size); the shared
    `b2` is (d_model,). With a `gate` the hidden layer is
    activation(x @ gate) * (x @ up), and `activation` is silu; otherwise it
    is activation(x @ up + b1).
    """
    up: np.ndarray
    down: np.ndarray
    activation: str
    gate: Optional[np.ndarray] = None
    b1: Optional[np.ndarray] = None
    b2: Optional[np.ndarray] = None
    partition: object = None  # ExpertPartition once permuted

    @property
    def n_experts(self) -> int:
        return self.up.shape[0]

    @property
    def expert_size(self) -> int:
        return self.up.shape[1]

    @property
    def d_model(self) -> int:
        return self.up.shape[2]


class TransformerParams:
    """Flat, ordered name -> Tensor store plus the config that shaped it."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def astype(self, dtype) -> "TransformerParams":
        return TransformerParams(
            self.config,
            {k: param(t.data.astype(dtype)) for k, t in self.tensors.items()},
        )


def ffn_param_names(cfg: ModelConfig, i: int) -> dict[str, str]:
    """Role -> parameter name of block i's FFN weights, in checkpoint order."""
    return {role: f"block{i}.ffn.{suffix}" for role, suffix in FFN_LAYOUTS[cfg.ffn_kind].items()}


def _ffn_tensors(params: TransformerParams, i: int) -> dict[str, Tensor]:
    return {role: params[name] for role, name in ffn_param_names(params.config, i).items()}


def get_ffn_layer(params: TransformerParams, i: int, partition=None) -> FfnLayer:
    """Block i's FFN weights as expert slabs that are views of its parameters,
    so a write to either shows in the other. `partition` is the
    ExpertPartition the parameters were permuted by, if any."""
    cfg = params.config
    slabs = {role: _slab_view(t.data, D_FFN_AXIS[role], cfg.n_experts, cfg.expert_size)
             if role in D_FFN_AXIS else t.data for role, t in _ffn_tensors(params, i).items()}
    return FfnLayer(activation=cfg.activation, partition=partition, **slabs)


def ffn_hidden(params: TransformerParams, i: int, x: Tensor) -> Tensor:
    """Post-activation hidden layer of block i's FFN (activation(gate) * up with a gate)."""
    w = _ffn_tensors(params, i)
    if "gate" in w:
        return x.matmul(w["gate"]).act(params.config.activation) * x.matmul(w["up"])
    return x.matmul(w["up"], w["b1"]).act(params.config.activation)


def ffn_out(params: TransformerParams, i: int, a: Tensor, scale: Optional[Tensor] = None) -> Tensor:
    """Scale the hidden layer `a`, then down-project it (plus the shared bias).

    `scale` is (T, m) with m dividing d_ffn; each column scales d_ffn / m
    adjacent hidden units. None is the dense FFN, router scores give soft
    routing, and a constant 0/1 Tensor gives a baseline's mask, per expert
    (m = n_experts) or per neuron (m = d_ffn).
    A constant scale passes no gradient.
    """
    if scale is not None:
        a = a.scale_blocks(scale)
    w = _ffn_tensors(params, i)
    return a.matmul(w["down"], w.get("b2"))


def ffn_flops_per_token(cfg: ModelConfig) -> int:
    """Dense FFN FLOPs per token in one layer: 2 per weight of each d_model x d_ffn matrix."""
    matrices = sum(1 for role in FFN_LAYOUTS[cfg.ffn_kind] if role in ("gate", "up", "down"))
    return 2 * matrices * cfg.d_model * cfg.d_ffn


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Name -> shape of every model parameter, in checkpoint order."""
    d, f, v = cfg.d_model, cfg.d_ffn, cfg.vocab_size
    role_shapes = {"up": (d, f), "gate": (d, f), "down": (f, d), "b1": (f,), "b2": (d,)}
    shapes = {"wte": (v, d), "wpe": (cfg.max_seq_len, d)}
    for i in range(cfg.n_layers):
        blk = f"block{i}"
        shapes.update({f"{blk}.ln1.g": (d,), f"{blk}.ln1.b": (d,)})
        shapes.update({f"{blk}.attn.{w}": (d, d) for w in ("Wq", "Wk", "Wv")})
        shapes.update({f"{blk}.attn.{b}": (d,) for b in ("bq", "bk", "bv")})
        shapes.update({f"{blk}.attn.Wo": (d, d), f"{blk}.attn.bo": (d,),
                       f"{blk}.ln2.g": (d,), f"{blk}.ln2.b": (d,)})
        shapes.update({name: role_shapes[role] for role, name in ffn_param_names(cfg, i).items()})
    shapes.update({"ln_f.g": (d,), "ln_f.b": (d,), "head.W": (d, v), "head.b": (v,)})
    return shapes


def init_params(cfg: ModelConfig, rng: numerics.Rng) -> TransformerParams:
    """GPT2-style float32 init of the `param_shapes` table.

    Layer-norm gains are ones and every other 1-D tensor is a zero bias.
    Matrices draw normal(0, 0.02) from `rng.split(name)`; the residual
    projections (attn.Wo and the FFN's down role) use 0.02 / sqrt(2 * n_layers).
    """
    cfg.validate()
    resid_std = 0.02 / math.sqrt(2 * cfg.n_layers)
    resid = {n for i in range(cfg.n_layers)
             for n in (f"block{i}.attn.Wo", ffn_param_names(cfg, i)["down"])}
    t: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) > 1:
            std = resid_std if name in resid else 0.02
            t[name] = param(rng.split(name).normal(shape, std=std, dtype=F32))
        else:
            t[name] = param((np.ones if name.endswith(".g") else np.zeros)(shape, dtype=F32))
    return TransformerParams(cfg, t)


@dataclass
class ForwardResult:
    logits: Tensor                       # (B*T, vocab), batch-major; (T, vocab) for 1-D tokens
    decisions: Optional[list] = None     # RoutingDecision per layer over the same B*T rows
    score_graph: Optional[list] = None   # per-layer (B*T, n_experts) score Tensors, moe_soft only


def _attention(params: TransformerParams, i: int, xn: Tensor, bias: np.ndarray) -> Tensor:
    """Causal multi-head attention over (B*T, d) rows, T read off the (T, T)
    `causal_bias`: the q, k and v projections, one `causal_attention` node
    that splits, attends and merges the heads, then the output projection."""
    q, k, v = (xn.matmul(params[f"block{i}.attn.W{n}"], params[f"block{i}.attn.b{n}"])
               for n in ("q", "k", "v"))
    ctx = q.causal_attention(k, v, params.config.n_heads, bias)
    return ctx.matmul(params[f"block{i}.attn.Wo"], params[f"block{i}.attn.bo"])


def forward_lm(
    params: TransformerParams,
    tokens: np.ndarray,
    ffn_mode: str = "dense",
    routers: Optional[list] = None,
    tau: float = 0.5,
    partitions: Optional[list] = None,
    packed: Optional[list] = None,
    ffn_scale: Optional[Callable[[int, np.ndarray, np.ndarray], tuple]] = None,
) -> ForwardResult:
    """Forward pass over one sequence (T,) or a batch of equal-length ones (B, T).

    Activations are (B*T, d) rows, batch-major, so every row-wise layer (the
    layer norms, the FFN, routers, the gather path, `ffn_scale` and the
    loss) sees the whole batch in one call; only inside its one node does
    attention regroup rows into (B, H, T, head_dim). Logits and
    RoutingDecisions have B*T rows. T must be at least 1.

    ffn_mode: dense | moe_soft | moe_discrete. The moe modes delegate the FFN
    to the routing module and return per-layer RoutingDecisions. moe_discrete
    runs the union kernel either way. When the graph is not being recorded it
    needs `partitions` and the `packed` weights built from them once by the
    caller (`sparse_exec.pack`); when it is, the kernel runs as one graph op
    over the parameters (`sparse_exec.sparse_ffn_graph`, mask held constant).

    ffn_scale(i, x, a) -> (scale, decision), dense mode only, is how the eval
    baselines run: it picks a constant scale for block i's FFN from the
    numpy input `x` and hidden layer `a`.
    """
    from . import routing  # deferred: routing builds on this module's types

    cfg = params.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim not in (1, 2):
        raise ShapeError(f"tokens must be (T,) or (B, T), got shape {tokens.shape}")
    b, t = (1, tokens.shape[0]) if tokens.ndim == 1 else tokens.shape
    if t > cfg.max_seq_len:
        raise ShapeError(f"sequence length {t} exceeds max_seq_len {cfg.max_seq_len}")
    if t == 0:
        raise ShapeError(f"tokens of shape {tokens.shape} hold empty sequences")
    if ffn_mode not in ("dense", "moe_soft", "moe_discrete"):
        raise ValueError(f"unknown ffn_mode {ffn_mode!r}")
    if ffn_scale is not None and ffn_mode != "dense":
        raise ValueError(f"ffn_scale needs ffn_mode 'dense', got {ffn_mode!r}")
    if ffn_mode != "dense" and routers is None:
        raise ValueError(f"{ffn_mode} requires routers")
    gather = ffn_mode == "moe_discrete" and not grad_enabled()
    if gather and (packed is None or partitions is None):
        raise ValueError("moe_discrete without a graph requires packed weights and partitions")

    x = params["wte"].rows(tokens.reshape(-1)) + params["wpe"].rows(np.tile(np.arange(t), b))
    bias = causal_bias(t, x.dtype)

    decisions = [] if (ffn_mode != "dense" or ffn_scale) else None
    score_graph = [] if ffn_mode == "moe_soft" else None

    for i in range(cfg.n_layers):
        xn = x.layernorm(params[f"block{i}.ln1.g"], params[f"block{i}.ln1.b"])
        x = x + _attention(params, i, xn, bias)
        xf = x.layernorm(params[f"block{i}.ln2.g"], params[f"block{i}.ln2.b"])

        if ffn_mode == "dense":
            a, scale = ffn_hidden(params, i, xf), None
            if ffn_scale is not None:
                s, dec = ffn_scale(i, xf.data, a.data)
                scale = Tensor(s.astype(a.dtype))
            f = ffn_out(params, i, a, scale)
        elif ffn_mode == "moe_soft":
            f, g, dec = routing.soft_ffn_graph(params, i, routers[i], xf)
            score_graph.append(g)
        elif gather:
            out_np, dec = routing.moe_forward_discrete(packed[i], partitions[i], routers[i],
                                                       xf.data, tau)
            f = Tensor(out_np)
        else:  # moe_discrete with a graph
            f, dec = routing.discrete_ffn_graph(params, i, routers[i], xf, tau)
        if decisions is not None:
            decisions.append(dec)
        x = x + f

    xn = x.layernorm(params["ln_f.g"], params["ln_f.b"])
    logits = xn.matmul(params["head.W"], params["head.b"])
    return ForwardResult(logits=logits, decisions=decisions, score_graph=score_graph)

