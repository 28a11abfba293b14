import math

import numpy as np
import pytest

from moefy import routing
from moefy.autograd import Tensor, no_grad, param
from moefy.model import (
    D_FFN_AXIS,
    ModelConfig,
    TransformerParams,
    ffn_hidden,
    ffn_out,
    ffn_param_names,
    forward_lm,
    get_ffn_layer,
    init_params,
)
from moefy.numerics import F64, Rng, ShapeError, activation, sigmoid

from ffn_blocks import (dense_ffn, ffn_weights, one_block, packed_layers,
                        random_block as ffn_random_block)
from oracles import finite_diff_grad, param_count


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
    return xn @ w("head.W") + w("head.b")


class TestFfnOps:
    def test_identity_composition(self):
        d, f = 3, 6
        w1 = np.zeros((d, f), dtype=np.float32)
        w1[:, :d] = np.eye(d)
        w2 = np.zeros((f, d), dtype=np.float32)
        w2[:d, :] = np.eye(d)
        params = one_block("two_matmul", w1, np.zeros(f, np.float32), w2, np.zeros(d, np.float32),
                           activation="relu")
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        assert np.allclose(dense_ffn(params, x), x)

    def test_zero_weights_bias_only(self):
        d, f = 4, 8
        c = np.array([0.5, -1.0, 2.0, 0.0], dtype=np.float32)
        params = one_block("two_matmul", np.zeros((d, f), np.float32), np.zeros(f, np.float32),
                           np.zeros((f, d), np.float32), c)
        y = dense_ffn(params, Rng(0).normal((3, d), std=1.0))
        assert np.allclose(y, np.tile(c, (3, 1)))

    def test_matches_scalar_reference(self):
        rng = Rng(4)
        d, f = 5, 9
        params = ffn_random_block(rng, "two_matmul", d, f, std=0.5)
        w1, b1, w2, b2 = (ffn_weights(params)[r] for r in ("up", "b1", "down", "b2"))
        x = rng.normal((3, d), std=1.0)
        ref = np.zeros((3, d))
        for ti in range(3):
            h = np.array([sum(float(x[ti, a]) * float(w1[a, j]) for a in range(d))
                          + float(b1[j]) for j in range(f)])
            act = activation(h, "gelu_tanh")
            for j in range(d):
                ref[ti, j] = sum(float(act[a]) * float(w2[a, j]) for a in range(f)) \
                    + float(b2[j])
        assert np.abs(dense_ffn(params, x) - ref).max() < 1e-6

    def test_glu_zero_input(self):
        rng = Rng(6)
        params = ffn_random_block(rng, "swiglu", 4, 8, std=1.0)
        assert np.allclose(dense_ffn(params, np.zeros((2, 4), np.float32)), 0.0)

    def test_glu_zero_up_columns(self):
        rng = Rng(7)
        params = one_block("swiglu", rng.normal((4, 8), std=1.0), np.zeros((4, 8), np.float32),
                           rng.normal((8, 4), std=1.0))
        x = rng.normal((3, 4), std=1.0)
        assert np.allclose(dense_ffn(params, x), 0.0)

    def test_glu_matches_scalar_reference(self):
        rng = Rng(8)
        d, f = 4, 6
        params = ffn_random_block(rng, "swiglu", d, f, std=0.7)
        w_gate, w_up, w_down = (ffn_weights(params)[r] for r in ("gate", "up", "down"))
        x = rng.normal((2, d), std=1.0)
        ref = np.zeros((2, d))
        for ti in range(2):
            hg = np.array([sum(float(x[ti, a]) * float(w_gate[a, j]) for a in range(d))
                           for j in range(f)])
            hu = np.array([sum(float(x[ti, a]) * float(w_up[a, j]) for a in range(d))
                           for j in range(f)])
            prod = (hg * sigmoid(hg)) * hu
            for j in range(d):
                ref[ti, j] = sum(float(prod[a]) * float(w_down[a, j]) for a in range(f))
        assert np.abs(dense_ffn(params, x) - ref).max() < 1e-6

    def test_shape_error(self):
        params = one_block("two_matmul", np.zeros((3, 6), np.float32), np.zeros(6, np.float32),
                           np.zeros((6, 3), np.float32), np.zeros(3, np.float32))
        with pytest.raises(ShapeError):
            dense_ffn(params, np.zeros((2, 4), np.float32))


class TestGetFfnLayer:
    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_slabs_are_views_of_the_parameters(self, kind):
        cfg = toy_config(ffn_kind=kind, d_ffn=24)  # 6 experts of 4, d_model 8
        params = init_params(cfg, Rng(3))
        layer = get_ffn_layer(params, 1)
        assert (layer.n_experts, layer.expert_size, layer.d_model) == (6, 4, 8)
        names = ffn_param_names(cfg, 1)
        for role in {"up", "gate", "down", "b1", "b2"} - names.keys():
            assert getattr(layer, role) is None, role
        for role, name in names.items():
            w, slab = params[name].data, getattr(layer, role)
            assert np.shares_memory(slab, w), role
            if role == "b2":
                assert slab is w
                continue
            assert slab.shape == (6, 4, 8)[:w.ndim + 1], role
            # hidden unit 5 is expert 1's unit 1: a write to it shows in the slab
            unit = np.moveaxis(w, D_FFN_AXIS[role], 0)[5:6]
            unit[...] = 7.0
            assert (slab[1, 1] == 7.0).all() and (slab == 7.0).sum() == unit.size, role


def random_block(kind, dtype, seed=40, d=6, f=12, expert_size=4):
    rng = Rng(seed)
    params = ffn_random_block(rng, kind, d, f, std=0.6, bias_std=0.3, dtype=dtype,
                              expert_size=expert_size)
    return params, rng.split("x").normal((5, d), std=1.0, dtype=dtype)


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
        down = params[ffn_param_names(params.config, 0)["down"]].grad
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

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_sequence_rejected(self, shape):
        params = init_params(toy_config(), Rng(15))
        with pytest.raises(ShapeError, match="empty sequences"):
            forward_lm(params, np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("tokens,message", [
        ([-1, 3], r"must lie in \[0, 17\), got -1\.\.3"),
        ([3, 17], r"must lie in \[0, 17\), got 3\.\.17"),
        ([[1.0, 3.0]], r"must be integers in \[0, 17\), got dtype float64"),
    ], ids=["negative", "vocab_size", "float"])
    def test_token_ids_outside_the_vocabulary_rejected(self, tokens, message):
        # -1 once read the last embedding row, a float id was truncated and
        # vocab_size ended in a raw IndexError
        params = init_params(toy_config(), Rng(15))
        with pytest.raises(ValueError, match=message):
            forward_lm(params, np.asarray(tokens))

    def test_batch_of_no_sequences(self):
        params = init_params(toy_config(), Rng(15))
        with no_grad():
            res = forward_lm(params, np.zeros((0, 5), dtype=np.int64))
        assert res.logits.shape == (0, params.config.vocab_size)

    def test_moe_mode_needs_routers(self):
        cfg = toy_config()
        params = init_params(cfg, Rng(16))
        with pytest.raises(ValueError):
            forward_lm(params, np.array([1, 2]), ffn_mode="moe_soft")

    def test_soft_mode_with_scores_near_one_matches_dense(self):
        from moefy.grouping import apply_partition, group_experts_random

        cfg = toy_config()
        params = init_params(cfg, Rng(17))
        routers = []
        for i in range(cfg.n_layers):
            p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(20 + i))
            apply_partition(params, i, p)
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
        assert all(d.mask.all() for d in soft.decisions)

    def test_discrete_all_selected_matches_dense(self):
        from moefy.grouping import apply_partition, group_experts_random

        cfg = toy_config()
        params = init_params(cfg, Rng(19))
        partitions, routers = [], []
        for i in range(cfg.n_layers):
            p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(40 + i))
            apply_partition(params, i, p)
            partitions.append(p)
            routers.append(routing.router_init(cfg.d_model, cfg.n_experts, Rng(50 + i)))
        tokens = Rng(20).integers(0, cfg.vocab_size, size=6)
        with no_grad():
            dense = forward_lm(params, tokens).logits.data
            disc = forward_lm(params, tokens, ffn_mode="moe_discrete", routers=routers,
                              tau=1e-6, partitions=partitions,
                              packed=packed_layers(params, partitions))
        assert np.abs(disc.logits.data - dense).max() < 1e-5
        assert all(d.mask.all() for d in disc.decisions)


def moefied_f64(kind, seed=60):
    """Float64 toy model with random partitions and routers giving mixed masks."""
    from moefy.grouping import apply_partition, group_experts_random

    cfg = toy_config(ffn_kind=kind, d_ffn=16 if kind == "two_matmul" else 12)
    params = init_params(cfg, Rng(seed)).astype(F64)
    partitions, routers = [], []
    for i in range(cfg.n_layers):
        p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(seed).split(f"g{i}"))
        apply_partition(params, i, p)
        partitions.append(p)
        routers.append(routing.router_init(cfg.d_model, cfg.n_experts, Rng(seed).split(f"r{i}"),
                                           std=1.0, dtype=np.float64))
    return params, routers, partitions


# test mode -> forward_lm ffn_mode; the gather variant runs under no_grad
BATCH_MODES = {"dense": "dense", "moe_soft": "moe_soft", "moe_discrete_graph": "moe_discrete",
               "moe_discrete_gather": "moe_discrete", "override": "dense"}


class TestBatchedForward:
    """(B, T) tokens give the rows of B one-sequence calls, batch-major."""

    @staticmethod
    def run(params, routers, partitions, tokens, mode):
        kw = dict(ffn_mode=BATCH_MODES[mode], routers=routers, partitions=partitions)
        if mode == "override":
            kw["ffn_scale"] = lambda i, x, a: routing.magnitude_select(a, 0.5)
        if mode == "moe_discrete_gather":
            kw["packed"] = packed_layers(params, partitions)
            with no_grad():
                res = forward_lm(params, tokens, **kw)
        else:
            res = forward_lm(params, tokens, **kw)
        masks = [getattr(d, "mask", d) for d in (res.decisions or [])]
        return res.logits.data, masks

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    @pytest.mark.parametrize("mode", BATCH_MODES)
    def test_batch_equals_per_sequence(self, kind, mode):
        params, routers, partitions = moefied_f64(kind)
        tokens = Rng(61).integers(0, params.config.vocab_size, size=(3, 7))
        logits, masks = self.run(params, routers, partitions, tokens, mode)
        singles = [self.run(params, routers, partitions, t, mode) for t in tokens]
        assert logits.shape == (21, params.config.vocab_size)
        ref = np.concatenate([lg for lg, _ in singles])
        assert np.abs(logits - ref).max() < 1e-10
        assert len(masks) == (0 if mode == "dense" else params.config.n_layers)
        for l, m in enumerate(masks):
            assert np.array_equal(m, np.concatenate([ms[l] for _, ms in singles]))
        if mode.startswith("moe_discrete"):
            assert 0 < np.mean([m.mean() for m in masks]) < 1  # mixed selections

    def test_token_rank_checked(self):
        params = init_params(toy_config(), Rng(62))
        with pytest.raises(ShapeError):
            forward_lm(params, np.zeros((2, 2, 2), dtype=np.int64))


class TestFfnScale:
    """A baseline's ffn_scale selector runs through forward_lm's dense FFN line."""

    @pytest.mark.parametrize("mode", ["moe_soft", "moe_discrete"])
    def test_needs_dense_mode(self, mode):
        params, routers, partitions = moefied_f64("two_matmul")
        ones = lambda i, x, a: (np.ones_like(a), None)
        with pytest.raises(ValueError, match="ffn_scale"):
            forward_lm(params, np.zeros(3, dtype=np.int64), ffn_mode=mode, routers=routers,
                       partitions=partitions, ffn_scale=ones)

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_all_ones_scale_is_dense_bitwise(self, kind):
        params, _, _ = moefied_f64(kind)
        tokens = Rng(65).integers(0, params.config.vocab_size, size=(2, 6))
        seen = []

        def ones(i, x, a):
            seen.append(i)
            return np.ones((a.shape[0], params.config.n_experts)), f"decision {i}"

        res = forward_lm(params, tokens, ffn_scale=ones)
        dense = forward_lm(params, tokens, ffn_mode="dense")
        assert np.array_equal(res.logits.data, dense.logits.data)
        assert seen == list(range(params.config.n_layers))
        assert res.decisions == [f"decision {i}" for i in seen]


def test_discrete_call_args1_carries_layer_index(monkeypatch):
    # the benchmark's per-layer kept-fraction trace keys each
    # moe_forward_discrete call by args[1].layer_index
    from moefy.grouping import apply_partition, group_experts_random

    cfg = toy_config(n_layers=3)
    params = init_params(cfg, Rng(63))
    partitions, routers = [], []
    for i in range(cfg.n_layers):
        p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(63).split(f"g{i}"), layer_index=i)
        apply_partition(params, i, p)
        partitions.append(p)
        routers.append(routing.router_init(cfg.d_model, cfg.n_experts, Rng(63).split(f"r{i}")))
    seen = []
    real = routing.moe_forward_discrete

    def spy(*args, **kwargs):
        seen.append(args[1].layer_index)
        return real(*args, **kwargs)

    monkeypatch.setattr(routing, "moe_forward_discrete", spy)
    tokens = Rng(64).integers(0, cfg.vocab_size, size=(2, 5))
    with no_grad():
        forward_lm(params, tokens, ffn_mode="moe_discrete", routers=routers,
                   partitions=partitions, packed=packed_layers(params, partitions))
    assert seen == list(range(cfg.n_layers))


@pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
def test_packed_gather_builds_no_layer_view(kind, monkeypatch):
    # the caller packs once: the gather path builds no layer view and packs nothing
    from moefy import model, sparse_exec

    params, routers, partitions = moefied_f64(kind)
    packed = packed_layers(params, partitions)
    tokens = Rng(66).integers(0, params.config.vocab_size, size=(2, 7))
    kw = dict(ffn_mode="moe_discrete", routers=routers, partitions=partitions)
    masked = forward_lm(params, tokens, **kw)

    def refuse(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called with packed weights given")
        return fail

    monkeypatch.setattr(model, "get_ffn_layer", refuse("get_ffn_layer"))
    monkeypatch.setattr(sparse_exec, "pack", refuse("pack"))
    with no_grad():
        got = forward_lm(params, tokens, packed=packed, **kw)
    assert np.abs(got.logits.data - masked.logits.data).max() < 1e-10
    for g, m in zip(got.decisions, masked.decisions):
        assert np.array_equal(g.mask, m.mask)
    assert 0 < np.mean([d.mask.mean() for d in got.decisions]) < 1


@pytest.mark.parametrize("missing", ["packed", "partitions"])
def test_gather_without_packed_weights_raises(missing):
    params, routers, partitions = moefied_f64("two_matmul")
    kw = dict(ffn_mode="moe_discrete", routers=routers, partitions=partitions,
              packed=packed_layers(params, partitions))
    del kw[missing]
    with no_grad(), pytest.raises(ValueError, match="packed weights and partitions"):
        forward_lm(params, np.zeros(3, dtype=np.int64), **kw)
    forward_lm(params, np.zeros(3, dtype=np.int64), **kw)  # the masked graph needs neither


class TestParamCount:
    # counted by hand: wte + wpe, then per block ln1 + attention (four d x d
    # matrices and four d biases) + ln2 + the FFN, then ln_f + head.W + head.b
    @pytest.mark.parametrize("kw,count", [
        ({}, 1601),  # 136 + 96 + 2 * (16 + 288 + 16 + 280) + 16 + 136 + 17
        ({"ffn_kind": "swiglu", "d_ffn": 12}, 1617),  # FFN 3 * 8 * 12 = 288 per block
        ({"n_layers": 3, "d_model": 16, "n_heads": 4, "d_ffn": 32, "expert_size": 8},
         7457),  # 272 + 192 + 3 * (32 + 1088 + 32 + 1072) + 32 + 272 + 17
    ])
    def test_matches_hand_count_and_allocation(self, kw, count):
        cfg = toy_config(**kw)
        assert param_count(cfg) == count
        assert sum(t.data.size for t in init_params(cfg, Rng(1)).tensors.values()) == count


BLOCK0_PREFIX = ["wte", "wpe", "block0.ln1.g", "block0.ln1.b", "block0.attn.Wq", "block0.attn.Wk",
                 "block0.attn.Wv", "block0.attn.bq", "block0.attn.bk", "block0.attn.bv",
                 "block0.attn.Wo", "block0.attn.bo", "block0.ln2.g", "block0.ln2.b"]
TAIL = ["ln_f.g", "ln_f.b", "head.W", "head.b"]


class TestCheckpointOrder:
    """init_params's insertion order is the checkpoint's tensor order."""

    @pytest.mark.parametrize("kind,ffn", [
        ("two_matmul", ["block0.ffn.W1", "block0.ffn.b1", "block0.ffn.W2", "block0.ffn.b2"]),
        ("swiglu", ["block0.ffn.Wgate", "block0.ffn.Wup", "block0.ffn.Wdown"]),
    ])
    def test_init_names_pinned(self, kind, ffn):
        params = init_params(toy_config(ffn_kind=kind, n_layers=1), Rng(0))
        assert params.names() == BLOCK0_PREFIX + ffn + TAIL
        assert list(ffn_param_names(params.config, 0).values()) == ffn
