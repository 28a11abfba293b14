"""Test helpers: wrap an FFN layer view in a one-block TransformerParams."""

import numpy as np

from moefy.autograd import Tensor, no_grad, param
from moefy.model import (
    GluFfnLayer,
    ModelConfig,
    TransformerParams,
    ffn_hidden,
    ffn_out,
    ffn_param_names,
    set_ffn_layer,
)


def one_block(layer, expert_size=1):
    """One-block TransformerParams holding the weights of an FFN layer view."""
    glu = isinstance(layer, GluFfnLayer)
    d, f = (layer.W_gate if glu else layer.W1).shape
    cfg = ModelConfig(d_model=d, n_heads=1, n_layers=1, d_ffn=f, expert_size=expert_size,
                      ffn_kind="swiglu" if glu else "two_matmul",
                      activation="gelu_tanh" if glu else layer.activation)
    params = TransformerParams(cfg, {n: param(np.zeros(0)) for n in ffn_param_names(cfg, 0)})
    set_ffn_layer(params, 0, layer)
    return params


def dense_ffn(layer, x):
    """The model's dense FFN (ffn_hidden, then ffn_out) applied to `layer`."""
    params = one_block(layer)
    with no_grad():
        return ffn_out(params, 0, ffn_hidden(params, 0, Tensor(x))).data
