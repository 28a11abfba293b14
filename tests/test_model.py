import math

import numpy as np
import pytest

from moefy import routing
from moefy.autograd import Tensor, no_grad, param
from moefy.model import (
    FfnLayer,
    GluFfnLayer,
    ModelConfig,
    TransformerParams,
    ffn_hidden,
    ffn_out,
    forward_lm,
    get_ffn_layer,
    init_params,
    param_count,
)
from moefy.numerics import F64, Rng, ShapeError, activation, finite_diff_grad, sigmoid

from ffn_blocks import dense_ffn, one_block


def toy_config(**kw):
    base = dict(vocab_size=17, d_model=8, n_heads=2, n_layers=2, d_ffn=16,
                max_seq_len=12, expert_size=4)
    base.update(kw)
    return ModelConfig(**base).validate()


def naive_forward(params: TransformerParams, tokens):
    """Mirrored reference: per-position loops, plain numpy, no shared helpers."""
    cfg = params.config
    t = len(tokens)
    d, hd = cfg.d_model, cfg.d_model // cfg.n_heads
    w = lambda n: params[n].data.astype(np.float64)
    x = w("wte")[tokens] + w("wpe")[:t]

    def ln(v, g, b):
        mu = v.mean()
        var = v.var()
        return g * (v - mu) / np.sqrt(var + 1e-5) + b

    for i in range(cfg.n_layers):
        xn = np.stack([ln(x[p], w(f"block{i}.ln1.g"), w(f"block{i}.ln1.b")) for p in range(t)])
        q = xn @ w(f"block{i}.attn.Wq") + w(f"block{i}.attn.bq")
        k = xn @ w(f"block{i}.attn.Wk") + w(f"block{i}.attn.bk")
        v = xn @ w(f"block{i}.attn.Wv") + w(f"block{i}.attn.bv")
        att_out = np.zeros((t, d))
        for h in range(cfg.n_heads):
            sl = slice(h * hd, (h + 1) * hd)
            ctx = np.zeros((t, hd))
            for p in range(t):
                scores = np.array([q[p, sl] @ k[r, sl] for r in range(p + 1)]) / math.sqrt(hd)
                e = np.exp(scores - scores.max())
                probs = e / e.sum()
                ctx[p] = sum(probs[r] * v[r, sl] for r in range(p + 1))
            att_out += ctx @ w(f"block{i}.attn.Wo")[sl, :]
        x = x + att_out + w(f"block{i}.attn.bo")
        xf = np.stack([ln(x[p], w(f"block{i}.ln2.g"), w(f"block{i}.ln2.b")) for p in range(t)])
        if cfg.ffn_kind == "two_matmul":
            h1 = xf @ w(f"block{i}.ffn.W1") + w(f"block{i}.ffn.b1")
            a = activation(h1, cfg.activation)
            x = x + a @ w(f"block{i}.ffn.W2") + w(f"block{i}.ffn.b2")
        else:
            g = activation(xf @ w(f"block{i}.ffn.Wgate"), "silu")
            x = x + (g * (xf @ w(f"block{i}.ffn.Wup"))) @ w(f"block{i}.ffn.Wdown")
    xn = np.stack([ln(x[p], w("ln_f.g"), w("ln_f.b")) for p in range(t)])
    head = w("wte").T if cfg.tie_embeddings else w("head.W")
    return xn @ head + w("head.b")


class TestFfnOps:
    def test_identity_composition(self):
        d, f = 3, 6
        w1 = np.zeros((d, f), dtype=np.float32)
        w1[:, :d] = np.eye(d)
        w2 = np.zeros((f, d), dtype=np.float32)
        w2[:d, :] = np.eye(d)
        layer = FfnLayer(w1, np.zeros(f, np.float32), w2, np.zeros(d, np.float32), "relu")
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        assert np.allclose(dense_ffn(layer, x), x)

    def test_zero_weights_bias_only(self):
        d, f = 4, 8
        c = np.array([0.5, -1.0, 2.0, 0.0], dtype=np.float32)
        layer = FfnLayer(np.zeros((d, f), np.float32), np.zeros(f, np.float32),
                         np.zeros((f, d), np.float32), c, "gelu_tanh")
        y = dense_ffn(layer, Rng(0).normal((3, d), std=1.0))
        assert np.allclose(y, np.tile(c, (3, 1)))

    def test_matches_scalar_reference(self):
        rng = Rng(4)
        d, f = 5, 9
        layer = FfnLayer(rng.normal((d, f), std=0.5), rng.normal((f,), std=0.5),
                         rng.normal((f, d), std=0.5), rng.normal((d,), std=0.5), "gelu_tanh")
        x = rng.normal((3, d), std=1.0)
        ref = np.zeros((3, d))
        for ti in range(3):
            h = np.array([sum(float(x[ti, a]) * float(layer.W1[a, j]) for a in range(d))
                          + float(layer.b1[j]) for j in range(f)])
            act = activation(h, "gelu_tanh")
            for j in range(d):
                ref[ti, j] = sum(float(act[a]) * float(layer.W2[a, j]) for a in range(f)) \
                    + float(layer.b2[j])
        assert np.abs(dense_ffn(layer, x) - ref).max() < 1e-6

    def test_glu_zero_input(self):
        rng = Rng(6)
        layer = GluFfnLayer(rng.normal((4, 8), std=1.0), rng.normal((4, 8), std=1.0),
                            rng.normal((8, 4), std=1.0))
        assert np.allclose(dense_ffn(layer, np.zeros((2, 4), np.float32)), 0.0)

    def test_glu_zero_up_columns(self):
        rng = Rng(7)
        layer = GluFfnLayer(rng.normal((4, 8), std=1.0), np.zeros((4, 8), np.float32),
                            rng.normal((8, 4), std=1.0))
        x = rng.normal((3, 4), std=1.0)
        assert np.allclose(dense_ffn(layer, x), 0.0)

    def test_glu_matches_scalar_reference(self):
        rng = Rng(8)
        d, f = 4, 6
        layer = GluFfnLayer(rng.normal((d, f), std=0.7), rng.normal((d, f), std=0.7),
                            rng.normal((f, d), std=0.7))
        x = rng.normal((2, d), std=1.0)
        ref = np.zeros((2, d))
        for ti in range(2):
            hg = np.array([sum(float(x[ti, a]) * float(layer.W_gate[a, j]) for a in range(d))
                           for j in range(f)])
            hu = np.array([sum(float(x[ti, a]) * float(layer.W_up[a, j]) for a in range(d))
                           for j in range(f)])
            prod = (hg * sigmoid(hg)) * hu
            for j in range(d):
                ref[ti, j] = sum(float(prod[a]) * float(layer.W_down[a, j]) for a in range(f))
        assert np.abs(dense_ffn(layer, x) - ref).max() < 1e-6

    def test_shape_error(self):
        layer = FfnLayer(np.zeros((3, 6), np.float32), np.zeros(6, np.float32),
                         np.zeros((6, 3), np.float32), np.zeros(3, np.float32))
        with pytest.raises(ShapeError):
            dense_ffn(layer, np.zeros((2, 4), np.float32))


def random_block(kind, dtype, seed=40, d=6, f=12, expert_size=4):
    rng = Rng(seed)
    if kind == "two_matmul":
        layer = FfnLayer(rng.normal((d, f), std=0.6, dtype=dtype),
                         rng.normal((f,), std=0.3, dtype=dtype),
                         rng.normal((f, d), std=0.6, dtype=dtype),
                         rng.normal((d,), std=0.3, dtype=dtype), "gelu_tanh")
    else:
        layer = GluFfnLayer(rng.normal((d, f), std=0.6, dtype=dtype),
                            rng.normal((d, f), std=0.6, dtype=dtype),
                            rng.normal((f, d), std=0.6, dtype=dtype))
    x = rng.split("x").normal((5, d), std=1.0, dtype=dtype)
    return one_block(layer, expert_size), x


KINDS_DTYPES = [(k, t) for k in ("two_matmul", "swiglu") for t in (np.float32, np.float64)]


class TestScaledFfn:
    """model.ffn_hidden / ffn_out: the one FFN every routing mode scales."""

    @pytest.mark.parametrize("kind,dtype", KINDS_DTYPES)
    def test_none_scale_bitwise_equals_all_ones(self, kind, dtype):
        params, x = random_block(kind, dtype)
        with no_grad():
            a = ffn_hidden(params, 0, Tensor(x))
            dense = ffn_out(params, 0, a).data
            ones = ffn_out(params, 0, a, Tensor(np.ones((5, 3), dtype=dtype))).data
        assert dense.dtype == dtype
        assert dense.tobytes() == ones.tobytes()

    @pytest.mark.parametrize("kind,dtype", KINDS_DTYPES)
    def test_per_neuron_scale_equals_per_expert_expansion(self, kind, dtype):
        params, x = random_block(kind, dtype)
        s = sigmoid(Rng(41).normal((5, 3), std=1.0, dtype=dtype))
        with no_grad():
            a = ffn_hidden(params, 0, Tensor(x))
            per_expert = ffn_out(params, 0, a, Tensor(s)).data
            per_neuron = ffn_out(params, 0, a, Tensor(np.repeat(s, 4, axis=1))).data
        assert per_expert.tobytes() == per_neuron.tobytes()

    @pytest.mark.parametrize("kind,dtype,rtol", [(k, t, 1e-3 if t == np.float32 else 1e-6)
                                                 for k, t in KINDS_DTYPES])
    def test_score_scale_gradient_matches_finite_differences(self, kind, dtype, rtol):
        params, x = random_block(kind, dtype)
        s0 = sigmoid(Rng(42).normal((5, 3), std=1.0, dtype=F64))
        g = param(s0.astype(dtype))
        ffn_out(params, 0, ffn_hidden(params, 0, Tensor(x)), g).square().mean().backward()

        ref, x64 = params.astype(F64), x.astype(F64)

        def loss(flat):
            with no_grad():
                a = ffn_hidden(ref, 0, Tensor(x64))
                return float(ffn_out(ref, 0, a, Tensor(flat.reshape(s0.shape))).square().mean().data)

        fd = finite_diff_grad(loss, s0.ravel(), eps=1e-6)
        np.testing.assert_allclose(g.grad.ravel(), fd, rtol=rtol, atol=rtol * 1e-2)

    @pytest.mark.parametrize("kind,dtype", KINDS_DTYPES)
    def test_constant_mask_scale_passes_no_gradient(self, kind, dtype):
        params, x = random_block(kind, dtype)
        mask = np.zeros((5, 3), dtype=dtype)
        mask[:, 1] = 1.0
        const = Tensor(mask)
        ffn_out(params, 0, ffn_hidden(params, 0, Tensor(x)), const).sum().backward()
        assert const.grad is None and not const.requires_grad
        # only expert 1's down-projection rows (hidden units 4..7) get gradient
        down = params["block0.ffn.W2" if kind == "two_matmul" else "block0.ffn.Wdown"].grad
        assert not down[:4].any() and not down[8:].any() and down[4:8].any()

    def test_scale_width_must_divide_d_ffn(self):
        params, x = random_block("two_matmul", np.float64)
        with no_grad(), pytest.raises(ShapeError):
            ffn_out(params, 0, ffn_hidden(params, 0, Tensor(x)), Tensor(np.ones((5, 5))))


class TestForwardLm:
    def test_zero_weights_untied_bias(self):
        cfg = toy_config()
        params = init_params(cfg, Rng(0))
        for name, t in params.tensors.items():
            t.data = np.zeros_like(t.data)
        c = Rng(1).normal((cfg.vocab_size,), std=1.0)
        params["head.b"].data = c
        with no_grad():
            res = forward_lm(params, np.array([3]))
        assert np.allclose(res.logits.data, c[None, :], atol=1e-6)

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_matches_naive_reference(self, kind):
        cfg = toy_config(ffn_kind=kind, d_ffn=16 if kind == "two_matmul" else 12)
        params = init_params(cfg, Rng(10))
        # inflate weights so differences are not hidden by tiny magnitudes
        for name, t in params.tensors.items():
            if name.endswith((".g", ".b")) and "ln" in name:
                continue
            t.data = (t.data * 20).astype(np.float32)
        tokens = Rng(11).integers(0, cfg.vocab_size, size=8)
        with no_grad():
            res = forward_lm(params, tokens)
        ref = naive_forward(params, tokens)
        assert np.abs(res.logits.data - ref).max() < 1e-5

    def test_tied_embeddings_forward(self):
        cfg = toy_config(tie_embeddings=True)
        params = init_params(cfg, Rng(12))
        tokens = np.array([1, 2, 3])
        with no_grad():
            res = forward_lm(params, tokens)
        ref = naive_forward(params, tokens)
        assert np.abs(res.logits.data - ref).max() < 1e-5

    def test_causality(self):
        cfg = toy_config()
        params = init_params(cfg, Rng(13))
        tokens = Rng(14).integers(0, cfg.vocab_size, size=9)
        with no_grad():
            base = forward_lm(params, tokens).logits.data.copy()
            for t in range(9):
                mutated = tokens.copy()
                mutated[t] = (mutated[t] + 1) % cfg.vocab_size
                out = forward_lm(params, mutated).logits.data
                if t > 0:
                    assert np.allclose(out[:t], base[:t], atol=1e-7)
                assert not np.allclose(out[t:], base[t:], atol=1e-7)

    def test_sequence_too_long(self):
        cfg = toy_config()
        params = init_params(cfg, Rng(15))
        with pytest.raises(ShapeError):
            forward_lm(params, np.zeros(cfg.max_seq_len + 1, dtype=np.int64))

    def test_moe_mode_needs_routers(self):
        cfg = toy_config()
        params = init_params(cfg, Rng(16))
        with pytest.raises(ValueError):
            forward_lm(params, np.array([1, 2]), ffn_mode="moe_soft")

    def test_soft_mode_with_scores_near_one_matches_dense(self):
        from moefy.grouping import apply_partition, group_experts_random
        from moefy.model import set_ffn_layer

        cfg = toy_config()
        params = init_params(cfg, Rng(17))
        routers = []
        for i in range(cfg.n_layers):
            p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(20 + i))
            set_ffn_layer(params, i, apply_partition(get_ffn_layer(params, i), p))
            # router input is ln2's output: zero gain and unit bias make it all ones,
            # so a constant positive Wg gives every expert logit 30 (sigmoid -> ~1)
            params[f"block{i}.ln2.g"].data[:] = 0.0
            params[f"block{i}.ln2.b"].data[:] = 1.0
            wg = np.full((cfg.d_model, cfg.n_experts), 30.0 / cfg.d_model, dtype=np.float32)
            routers.append(routing.RouterLayer(Wg=param(wg)))
        tokens = Rng(18).integers(0, cfg.vocab_size, size=7)
        with no_grad():
            dense = forward_lm(params, tokens).logits.data
            soft = forward_lm(params, tokens, ffn_mode="moe_soft", routers=routers)
        assert np.abs(soft.logits.data - dense).max() < 1e-5
        assert all(d.mode == "soft" and d.mask.all() for d in soft.decisions)

    def test_discrete_all_selected_matches_dense(self):
        from moefy.grouping import apply_partition, group_experts_random
        from moefy.model import set_ffn_layer

        cfg = toy_config()
        params = init_params(cfg, Rng(19))
        partitions, routers = [], []
        for i in range(cfg.n_layers):
            p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(40 + i))
            set_ffn_layer(params, i, apply_partition(get_ffn_layer(params, i), p))
            partitions.append(p)
            routers.append(routing.router_init(cfg.d_model, cfg.n_experts, Rng(50 + i)))
        tokens = Rng(20).integers(0, cfg.vocab_size, size=6)
        with no_grad():
            dense = forward_lm(params, tokens).logits.data
            disc = forward_lm(params, tokens, ffn_mode="moe_discrete", routers=routers,
                              tau=1e-6, partitions=partitions)
        assert np.abs(disc.logits.data - dense).max() < 1e-5
        assert all(d.mask.all() for d in disc.decisions)


class TestParamCount:
    @pytest.mark.parametrize("kw", [
        {},
        {"ffn_kind": "swiglu", "d_ffn": 12},
        {"tie_embeddings": True},
        {"n_layers": 3, "d_model": 16, "n_heads": 4, "d_ffn": 32, "expert_size": 8},
    ])
    def test_formula_matches_allocation(self, kw):
        cfg = toy_config(**kw)
        params = init_params(cfg, Rng(1))
        assert params.element_count() == param_count(cfg)
