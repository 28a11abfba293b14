"""Test helpers: build FFN layer views by role, wrap one in a one-block
TransformerParams, pack a model's layers for the gather path, and a
plain-numpy reference FFN."""

import numpy as np

from moefy.autograd import Tensor, no_grad, param
from moefy.model import (
    FFN_LAYOUTS,
    FfnLayer,
    ModelConfig,
    TransformerParams,
    ffn_hidden,
    ffn_out,
    ffn_param_names,
    get_ffn_layer,
    set_ffn_layer,
)
from moefy.numerics import F32, activation as apply_activation
from moefy.sparse_exec import pack

KINDS = tuple(FFN_LAYOUTS)


def ffn_layer(kind, *arrays, activation="gelu_tanh"):
    """An FfnLayer of `kind` from its weight arrays in checkpoint order
    (two_matmul: W1, b1, W2, b2; swiglu: Wgate, Wup, Wdown)."""
    roles = list(FFN_LAYOUTS[kind])
    assert len(arrays) == len(roles), (kind, len(arrays))
    return FfnLayer(dict(zip(roles, arrays)), "silu" if "gate" in roles else activation)


def random_layer(rng, kind, d, f, std, bias_std=None, down_std=None, dtype=F32,
                 activation="gelu_tanh"):
    """Normal weights drawn role by role in checkpoint order; `std` for up and gate."""
    shapes = {"up": (d, f), "gate": (d, f), "down": (f, d), "b1": (f,), "b2": (d,)}
    stds = {"up": std, "gate": std, "down": down_std or std,
            "b1": bias_std or std, "b2": bias_std or std}
    return ffn_layer(kind, *(rng.normal(shapes[r], std=stds[r], dtype=dtype)
                             for r in FFN_LAYOUTS[kind]), activation=activation)


def one_block(layer, expert_size=1):
    """One-block TransformerParams holding the weights of an FFN layer view."""
    kind = next(k for k, roles in FFN_LAYOUTS.items() if roles.keys() == layer.weights.keys())
    d, f = layer.weights["up"].shape
    cfg = ModelConfig(d_model=d, n_heads=1, n_layers=1, d_ffn=f, expert_size=expert_size,
                      ffn_kind=kind, activation=layer.activation)
    params = TransformerParams(cfg, {n: param(np.zeros(0))
                                     for n in ffn_param_names(cfg, 0).values()})
    set_ffn_layer(params, 0, layer)
    return params


def packed_layers(params, partitions):
    """Every layer's packed expert slabs, as a caller of the gather path builds them once."""
    return [pack(get_ffn_layer(params, i, partition=p)) for i, p in enumerate(partitions)]


def dense_ffn(layer, x):
    """The model's dense FFN (ffn_hidden, then ffn_out) applied to `layer`."""
    params = one_block(layer)
    with no_grad():
        return ffn_out(params, 0, ffn_hidden(params, 0, Tensor(x))).data


def scaled_ffn_oracle(layer, x, neuron_scale):
    """Plain-numpy FFN from the layer's weight arrays, each hidden unit scaled."""
    w = layer.weights
    if "gate" in w:
        a = apply_activation(x @ w["gate"], "silu") * (x @ w["up"])
    else:
        a = apply_activation(x @ w["up"] + w["b1"], layer.activation)
    out = (a * neuron_scale) @ w["down"]
    return out + w["b2"] if "b2" in w else out


def expert_oracle(layer, x, expert_mask, expert_size):
    """`scaled_ffn_oracle` keeping only the hidden units of the experts that the
    (n_experts,) bool `expert_mask` selects."""
    return scaled_ffn_oracle(layer, x, np.repeat(expert_mask, expert_size).astype(x.dtype))
