"""Tiny decoder-only byte-level LM whose FFN layers get partitioned into experts.

Parameters live in a flat name -> autograd Tensor dict so the optimizer,
checkpoint format, and gradient checks all see one canonical storage. The
forward pass builds an autograd graph; under `autograd.no_grad()` the same
code runs as plain numpy evaluation. The FFN is written once, as
`ffn_hidden` then `ffn_out`: dense, soft-routed, masked and baseline FFNs
differ only in the per-expert (or per-neuron) scale passed to `ffn_out`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numerics
from .autograd import Tensor, grad_enabled, param
from .numerics import F32, ShapeError

FFN_KINDS = ("two_matmul", "swiglu")
NEG_INF = -1e30  # additive mask value; exp() underflows to exactly 0


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
    tie_embeddings: bool = False

    def validate(self) -> "ModelConfig":
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_ffn % self.expert_size != 0:
            raise ValueError(f"d_ffn {self.d_ffn} not divisible by expert_size {self.expert_size}")
        if self.ffn_kind not in FFN_KINDS:
            raise ValueError(f"unknown ffn_kind {self.ffn_kind!r}")
        if self.activation not in numerics.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        return self

    @property
    def n_experts(self) -> int:
        return self.d_ffn // self.expert_size

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class FfnLayer:
    """Two-matmul FFN weights (views into the parameter dict)."""
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    activation: str = "gelu_tanh"
    partition: object = None  # ExpertPartition once permuted


@dataclass
class GluFfnLayer:
    """Gated FFN weights; silu gate, no biases."""
    W_gate: np.ndarray
    W_up: np.ndarray
    W_down: np.ndarray
    partition: object = None


class TransformerParams:
    """Flat, ordered name -> Tensor store plus the config that shaped it."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return list(self.tensors)

    def element_count(self) -> int:
        return sum(t.data.size for t in self.tensors.values())

    def astype(self, dtype) -> "TransformerParams":
        return TransformerParams(
            self.config,
            {k: param(t.data.astype(dtype)) for k, t in self.tensors.items()},
        )

    def copy(self) -> "TransformerParams":
        return TransformerParams(
            self.config, {k: param(t.data.copy()) for k, t in self.tensors.items()}
        )

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()


def ffn_param_names(cfg: ModelConfig, i: int) -> list[str]:
    if cfg.ffn_kind == "two_matmul":
        return [f"block{i}.ffn.W1", f"block{i}.ffn.b1", f"block{i}.ffn.W2", f"block{i}.ffn.b2"]
    return [f"block{i}.ffn.Wgate", f"block{i}.ffn.Wup", f"block{i}.ffn.Wdown"]


def get_ffn_layer(params: TransformerParams, i: int, partition=None):
    cfg = params.config
    if cfg.ffn_kind == "two_matmul":
        return FfnLayer(
            W1=params[f"block{i}.ffn.W1"].data,
            b1=params[f"block{i}.ffn.b1"].data,
            W2=params[f"block{i}.ffn.W2"].data,
            b2=params[f"block{i}.ffn.b2"].data,
            activation=cfg.activation,
            partition=partition,
        )
    return GluFfnLayer(
        W_gate=params[f"block{i}.ffn.Wgate"].data,
        W_up=params[f"block{i}.ffn.Wup"].data,
        W_down=params[f"block{i}.ffn.Wdown"].data,
        partition=partition,
    )


def set_ffn_layer(params: TransformerParams, i: int, layer) -> None:
    cfg = params.config
    if cfg.ffn_kind == "two_matmul":
        params[f"block{i}.ffn.W1"].data = layer.W1
        params[f"block{i}.ffn.b1"].data = layer.b1
        params[f"block{i}.ffn.W2"].data = layer.W2
        params[f"block{i}.ffn.b2"].data = layer.b2
    else:
        params[f"block{i}.ffn.Wgate"].data = layer.W_gate
        params[f"block{i}.ffn.Wup"].data = layer.W_up
        params[f"block{i}.ffn.Wdown"].data = layer.W_down


def ffn_hidden(params: TransformerParams, i: int, x: Tensor, threads: int = 1) -> Tensor:
    """Post-activation hidden layer of block i's FFN (gate * up for swiglu)."""
    cfg = params.config
    if cfg.ffn_kind == "two_matmul":
        h = x.matmul(params[f"block{i}.ffn.W1"], threads=threads) + params[f"block{i}.ffn.b1"]
        return h.act(cfg.activation)
    g = x.matmul(params[f"block{i}.ffn.Wgate"], threads=threads).act("silu")
    return g * x.matmul(params[f"block{i}.ffn.Wup"], threads=threads)


def ffn_out(params: TransformerParams, i: int, a: Tensor, scale: Optional[Tensor] = None,
            threads: int = 1) -> Tensor:
    """Scale the hidden layer `a`, then down-project it (plus the shared bias).

    `scale` is (T, m) with m dividing d_ffn; each column scales d_ffn / m
    adjacent hidden units. None is the dense FFN, router scores give soft
    routing, and a constant 0/1 Tensor gives discrete selection or a
    baseline's mask, per expert (m = n_experts) or per neuron (m = d_ffn).
    A constant scale passes no gradient.
    """
    if scale is not None:
        width, m = a.shape[1], scale.shape[1]
        if width % m != 0:
            raise ShapeError(f"d_ffn {width} not divisible into {m} scale columns")
        a = a * scale.repeat_cols(width // m)
    if params.config.ffn_kind == "two_matmul":
        return a.matmul(params[f"block{i}.ffn.W2"], threads=threads) + params[f"block{i}.ffn.b2"]
    return a.matmul(params[f"block{i}.ffn.Wdown"], threads=threads)


def param_count(cfg: ModelConfig) -> int:
    """Analytic element count; must match allocation exactly."""
    d, f, v, s = cfg.d_model, cfg.d_ffn, cfg.vocab_size, cfg.max_seq_len
    attn = 4 * (d * d + d)
    norms = 4 * d  # ln1 + ln2 gains and biases
    ffn = 2 * d * f + f + d if cfg.ffn_kind == "two_matmul" else 3 * d * f
    per_block = attn + norms + ffn
    head = v if cfg.tie_embeddings else d * v + v
    return v * d + s * d + cfg.n_layers * per_block + 2 * d + head


def init_params(cfg: ModelConfig, rng: numerics.Rng, dtype=F32) -> TransformerParams:
    """GPT2-style init: normal(0, 0.02), zero biases, scaled residual projections."""
    cfg.validate()
    d, f = cfg.d_model, cfg.d_ffn
    resid_std = 0.02 / math.sqrt(2 * cfg.n_layers)
    t: dict[str, Tensor] = {}

    def normal(name, shape, std):
        t[name] = param(rng.split(name).normal(shape, std=std, dtype=dtype))

    def zeros(name, shape):
        t[name] = param(np.zeros(shape, dtype=dtype))

    def ones(name, shape):
        t[name] = param(np.ones(shape, dtype=dtype))

    normal("wte", (cfg.vocab_size, d), 0.02)
    normal("wpe", (cfg.max_seq_len, d), 0.02)
    for i in range(cfg.n_layers):
        ones(f"block{i}.ln1.g", d)
        zeros(f"block{i}.ln1.b", d)
        for w in ("Wq", "Wk", "Wv"):
            normal(f"block{i}.attn.{w}", (d, d), 0.02)
        for b in ("bq", "bk", "bv"):
            zeros(f"block{i}.attn.{b}", d)
        normal(f"block{i}.attn.Wo", (d, d), resid_std)
        zeros(f"block{i}.attn.bo", d)
        ones(f"block{i}.ln2.g", d)
        zeros(f"block{i}.ln2.b", d)
        if cfg.ffn_kind == "two_matmul":
            normal(f"block{i}.ffn.W1", (d, f), 0.02)
            zeros(f"block{i}.ffn.b1", f)
            normal(f"block{i}.ffn.W2", (f, d), resid_std)
            zeros(f"block{i}.ffn.b2", d)
        else:
            normal(f"block{i}.ffn.Wgate", (d, f), 0.02)
            normal(f"block{i}.ffn.Wup", (d, f), 0.02)
            normal(f"block{i}.ffn.Wdown", (f, d), resid_std)
    ones("ln_f.g", d)
    zeros("ln_f.b", d)
    if not cfg.tie_embeddings:
        normal("head.W", (d, cfg.vocab_size), 0.02)
    zeros("head.b", cfg.vocab_size)

    p = TransformerParams(cfg, t)
    assert p.element_count() == param_count(cfg)
    return p


@dataclass
class ForwardResult:
    logits: Tensor                       # (T, vocab)
    decisions: Optional[list] = None     # RoutingDecision per layer, moe modes
    score_graph: Optional[list] = None   # per-layer score Tensors, moe_soft only


def _attention(params: TransformerParams, i: int, xn: Tensor, mask_add: Tensor) -> Tensor:
    cfg = params.config
    hd = cfg.head_dim
    scale = 1.0 / math.sqrt(hd)
    q = xn @ params[f"block{i}.attn.Wq"] + params[f"block{i}.attn.bq"]
    k = xn @ params[f"block{i}.attn.Wk"] + params[f"block{i}.attn.bk"]
    v = xn @ params[f"block{i}.attn.Wv"] + params[f"block{i}.attn.bv"]
    wo = params[f"block{i}.attn.Wo"]
    out = None
    for h in range(cfg.n_heads):
        lo, hi = h * hd, (h + 1) * hd
        qh, kh, vh = q.col_slice(lo, hi), k.col_slice(lo, hi), v.col_slice(lo, hi)
        att = (qh @ kh.transpose()) * scale + mask_add
        ctx = att.softmax_rows() @ vh
        # project each head through its row slice of Wo; the sum is the concat-matmul
        yh = ctx @ wo.row_slice(lo, hi)
        out = yh if out is None else out + yh
    return out + params[f"block{i}.attn.bo"]


def causal_mask(t: int, dtype=F32) -> np.ndarray:
    m = np.zeros((t, t), dtype=dtype)
    m[np.triu_indices(t, k=1)] = NEG_INF
    return m


def forward_lm(
    params: TransformerParams,
    tokens: np.ndarray,
    ffn_mode: str = "dense",
    routers: Optional[list] = None,
    tau: float = 0.5,
    partitions: Optional[list] = None,
    packed: Optional[list] = None,
    ffn_override: Optional[Callable[[int, np.ndarray], tuple]] = None,
    threads: int = 1,
) -> ForwardResult:
    """One-sequence forward pass.

    ffn_mode: dense | moe_soft | moe_discrete. The moe modes delegate the FFN
    to the routing module and return per-layer RoutingDecisions. moe_discrete
    uses the packed gather path when the graph is not being recorded, and a
    masked-dense graph (mask held constant) when it is.
    """
    from . import routing  # deferred: routing builds on this module's types

    cfg = params.config
    tokens = np.asarray(tokens, dtype=np.int64)
    t = tokens.shape[0]
    if t > cfg.max_seq_len:
        raise ShapeError(f"sequence length {t} exceeds max_seq_len {cfg.max_seq_len}")
    if ffn_mode not in ("dense", "moe_soft", "moe_discrete"):
        raise ValueError(f"unknown ffn_mode {ffn_mode!r}")
    if ffn_mode != "dense" and routers is None and ffn_override is None:
        raise ValueError(f"{ffn_mode} requires routers")

    dtype = params["wte"].data.dtype
    x = params["wte"].rows(tokens) + params["wpe"].row_slice(0, t)
    mask_add = Tensor(causal_mask(t, dtype=dtype))

    decisions = [] if (ffn_mode != "dense" or ffn_override) else None
    score_graph = [] if ffn_mode == "moe_soft" else None

    for i in range(cfg.n_layers):
        xn = x.layernorm(params[f"block{i}.ln1.g"], params[f"block{i}.ln1.b"])
        x = x + _attention(params, i, xn, mask_add)
        xf = x.layernorm(params[f"block{i}.ln2.g"], params[f"block{i}.ln2.b"])

        if ffn_override is not None:
            out_np, dec = ffn_override(i, xf.data)
            f = Tensor(out_np)
            decisions.append(dec)
        elif ffn_mode == "dense":
            f = ffn_out(params, i, ffn_hidden(params, i, xf, threads), threads=threads)
        elif ffn_mode == "moe_soft":
            f, g, dec = routing.soft_ffn_graph(params, i, routers[i], xf, threads=threads)
            decisions.append(dec)
            score_graph.append(g)
        else:  # moe_discrete
            if grad_enabled():
                f, dec = routing.discrete_ffn_graph(params, i, routers[i], xf, tau, threads=threads)
            else:
                part = partitions[i] if partitions is not None else None
                layer = get_ffn_layer(params, i, partition=part)
                pk = packed[i] if packed is not None else None
                out_np, dec = routing.moe_forward_discrete(
                    layer, part, routers[i], xf.data, tau=tau, packed=pk, threads=threads
                )
                f = Tensor(out_np)
            decisions.append(dec)
        x = x + f

    xn = x.layernorm(params["ln_f.g"], params["ln_f.b"])
    head_w = params["wte"].transpose() if cfg.tie_embeddings else params["head.W"]
    logits = xn.matmul(head_w, threads=threads) + params["head.b"]
    return ForwardResult(logits=logits, decisions=decisions, score_graph=score_graph)

