"""Test helpers: one-block TransformerParams holding FFN weights by role, a
block's weights by role in parameter layout, a permuted block and its packed
slabs, every layer's packed slabs for the gather path, and a plain-numpy
reference FFN."""

import numpy as np

from moefy.autograd import Tensor, no_grad, param
from moefy.grouping import apply_partition, group_experts_random
from moefy.model import (
    FFN_LAYOUTS,
    ModelConfig,
    TransformerParams,
    ffn_hidden,
    ffn_out,
    ffn_param_names,
    get_ffn_layer,
)
from moefy.numerics import F32, activation as apply_activation
from moefy.sparse_exec import pack

KINDS = tuple(FFN_LAYOUTS)


def one_block(kind, *arrays, expert_size=1, activation="gelu_tanh"):
    """One-block TransformerParams holding an FFN of `kind`, its parameters
    the given weight arrays in checkpoint order (two_matmul: W1, b1, W2, b2;
    swiglu: Wgate, Wup, Wdown)."""
    roles = list(FFN_LAYOUTS[kind])
    assert len(arrays) == len(roles), (kind, len(arrays))
    d, f = arrays[roles.index("up")].shape
    cfg = ModelConfig(d_model=d, n_heads=1, n_layers=1, d_ffn=f, expert_size=expert_size,
                      ffn_kind=kind, activation="silu" if "gate" in roles else activation)
    names = ffn_param_names(cfg, 0).values()
    return TransformerParams(cfg, {n: param(w) for n, w in zip(names, arrays)})


def random_block(rng, kind, d, f, std, bias_std=None, down_std=None, dtype=F32,
                 activation="gelu_tanh", expert_size=1):
    """`one_block` of normal weights drawn role by role in checkpoint order;
    `std` for up and gate."""
    shapes = {"up": (d, f), "gate": (d, f), "down": (f, d), "b1": (f,), "b2": (d,)}
    stds = {"up": std, "gate": std, "down": down_std or std,
            "b1": bias_std or std, "b2": bias_std or std}
    return one_block(kind, *(rng.normal(shapes[r], std=stds[r], dtype=dtype)
                             for r in FFN_LAYOUTS[kind]),
                     expert_size=expert_size, activation=activation)


def ffn_weights(params, i=0):
    """Block i's FFN weight arrays by role, in parameter layout."""
    return {role: params[name].data for role, name in ffn_param_names(params.config, i).items()}


def permuted_block(rng, kind, d, f, n, **weights):
    """A `random_block` with n experts, permuted by a random partition drawn
    from `rng.split("p")`, and its packed slabs: (params, packed)."""
    params = random_block(rng, kind, d, f, expert_size=f // n, **weights)
    part = group_experts_random(f, n, rng.split("p"))
    apply_partition(params, 0, part)
    return params, pack(get_ffn_layer(params, 0, part))


def packed_layers(params, partitions):
    """Every layer's packed expert slabs, as a caller of the gather path builds them once."""
    return [pack(get_ffn_layer(params, i, partition=p)) for i, p in enumerate(partitions)]


def dense_ffn(params, x):
    """The model's dense FFN (ffn_hidden, then ffn_out) of block 0."""
    with no_grad():
        return ffn_out(params, 0, ffn_hidden(params, 0, Tensor(x))).data


def scaled_ffn_oracle(params, x, neuron_scale):
    """Plain-numpy FFN from block 0's weight arrays, each hidden unit scaled."""
    w = ffn_weights(params)
    if "gate" in w:
        a = apply_activation(x @ w["gate"], "silu") * (x @ w["up"])
    else:
        a = apply_activation(x @ w["up"] + w["b1"], params.config.activation)
    out = (a * neuron_scale) @ w["down"]
    return out + w["b2"] if "b2" in w else out


def expert_oracle(params, x, expert_mask, expert_size):
    """`scaled_ffn_oracle` keeping only the hidden units of the experts that the
    (n_experts,) bool `expert_mask` selects."""
    return scaled_ffn_oracle(params, x, np.repeat(expert_mask, expert_size).astype(x.dtype))
