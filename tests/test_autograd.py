"""Every autograd op is checked against central finite differences in float64."""

import math
import weakref

import numpy as np
import pytest

from moefy import numerics
from moefy.autograd import Tensor, causal_bias, no_grad, param
from moefy.numerics import NumericError, Rng, ShapeError, activation, activation_grad, matmul

from oracles import finite_diff_grad

RTOL = 1e-5
ATOL = 1e-7


def check_grads(fn, *arrays, eps=1e-6):
    """fn maps Tensors to a scalar Tensor; compare each input's gradient."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [param(a.copy()) for a in arrays]
    fn(*tensors).backward()
    for i in range(len(arrays)):
        def scalar(flat, i=i):
            ts = [param(a.copy()) for a in arrays]
            ts[i] = param(flat.reshape(arrays[i].shape))
            return float(fn(*ts).data)

        fd = finite_diff_grad(scalar, arrays[i].ravel(), eps=eps)
        got = tensors[i].grad.ravel()
        np.testing.assert_allclose(got, fd, rtol=RTOL, atol=ATOL)


def rnd(shape, seed, std=1.0):
    return Rng(seed).normal(shape, std=std, dtype=np.float64)


class TestElementwise:
    def test_add(self):
        check_grads(lambda a, b: (a + b).square().mean(), rnd((4, 3), 0), rnd((4, 3), 1))

    def test_mul(self):
        check_grads(lambda a, b: (a * b).sum(), rnd((3, 3), 2), rnd((3, 3), 3))

    @pytest.mark.parametrize("other", [(3,), (1, 3), (4, 1), (2, 4, 3)])
    def test_add_and_mul_need_equal_shapes(self, other):
        a, b = param(rnd((4, 3), 80)), param(rnd(other, 81))
        with pytest.raises(ShapeError):
            a + b
        with pytest.raises(ShapeError):
            a * b
        with pytest.raises(ShapeError):
            b * a

    def test_ndarray_operand_rejected(self):
        with pytest.raises(TypeError):
            param(rnd((4, 3), 82)) + rnd((4, 3), 83)
        with pytest.raises(TypeError):
            param(rnd((4, 3), 82)) * rnd((4, 3), 83)

    def test_mul_scalar_and_neg(self):
        check_grads(lambda a: (a * 2.5).sum(), rnd((5,), 4))

    def test_sigmoid(self):
        check_grads(lambda a: a.sigmoid().sum(), rnd((4, 2), 5))

    def test_activations(self):
        for kind in ("relu", "gelu_tanh", "silu"):
            check_grads(lambda a, k=kind: a.act(k).sum(), rnd((6,), 6) + 0.05)

    def test_square_reciprocal_clamp(self):
        x = np.abs(rnd((5,), 7)) + 0.5
        check_grads(lambda a: a.square().clamp_min(0.3).reciprocal().mean(), x)

    def test_mask_is_constant(self):
        # a constant 0/1 Tensor operand of `*` is data: it passes no gradient
        m = (rnd((4, 4), 8) > 0).astype(np.float64)
        check_grads(lambda a: (a * Tensor(m)).sum(), rnd((4, 4), 9))
        t, const = param(rnd((4, 4), 9)), Tensor(m)
        (t * const).sum().backward()
        assert np.array_equal(t.grad, m)
        assert const.grad is None


class TestStructure:
    def test_matmul(self):
        check_grads(lambda a, b: a.matmul(b).square().mean(), rnd((4, 3), 10), rnd((3, 5), 11))

    def test_matmul_bias(self):
        check_grads(lambda a, w, b: a.matmul(w, b).square().mean(),
                    rnd((4, 3), 84), rnd((3, 5), 85), rnd((5,), 86))

    def test_matmul_bias_shape_errors(self):
        x, w = param(rnd((4, 3), 87)), param(rnd((3, 5), 88))
        for bias in (rnd((4,), 89), rnd((1, 5), 90), rnd((4, 5), 91)):
            with pytest.raises(ShapeError):
                x.matmul(w, param(bias))
        with pytest.raises(ShapeError):  # a bias rides on 2-D products only
            param(rnd((2, 4, 3), 92)).matmul(param(rnd((2, 3, 5), 93)), param(rnd((5,), 94)))

    def test_rows_with_duplicates(self):
        idx = np.array([0, 2, 2, 1])
        check_grads(lambda a: a.rows(idx).square().sum(), rnd((4, 3), 13))

    def test_stacked_matmul_both_operands(self):
        check_grads(lambda a, b: a.matmul(b).square().mean(),
                    rnd((2, 3, 4, 5), 34), rnd((2, 3, 5, 2), 35))

    def test_stacked_matmul_spans_reduction_blocks(self):
        check_grads(lambda a, b: a.matmul(b).square().mean(),
                    rnd((2, 3, 70), 36, std=0.3), rnd((2, 70, 2), 37, std=0.3))

    def test_stacked_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            param(rnd((2, 3, 4), 38)).matmul(param(rnd((3, 4, 2), 39)))
        with pytest.raises(ShapeError):
            param(rnd((2, 3, 4), 40)).matmul(param(rnd((4, 2), 41)))

    @pytest.mark.parametrize("m", [4, 12], ids=["per_expert", "per_neuron"])
    def test_scale_blocks(self, m):
        check_grads(lambda a, s: a.scale_blocks(s).square().sum(), rnd((3, 12), 16),
                    rnd((3, m), 17))

    def test_scale_blocks_needs_whole_blocks(self):
        with pytest.raises(ShapeError):
            param(rnd((3, 12), 18)).scale_blocks(param(rnd((3, 5), 19)))


class TestFused:
    def test_layernorm(self):
        check_grads(
            lambda x, g, b: x.layernorm(g, b).square().mean(),
            rnd((6, 8), 17), rnd((8,), 18) + 1.0, rnd((8,), 19),
        )

    @pytest.mark.parametrize("b, t, d, heads", [(2, 5, 8, 2), (1, 1, 8, 2), (3, 4, 6, 1)])
    def test_causal_attention(self, b, t, d, heads):
        check_grads(lambda q, k, v: (q.causal_attention(k, v, heads, causal_bias(t, np.float64))
                                     * Tensor(rnd((b * t, d), 21))).sum(),
                    rnd((b * t, d), 20), rnd((b * t, d), 42), rnd((b * t, d), 43))

    @pytest.mark.parametrize("k_cols, heads, bias_shape", [
        (4, 2, (3, 3)),  # k and v narrower than q
        (8, 3, (3, 3)),  # d not divisible by the heads
        (8, 2, (4, 4)),  # rows not divisible by T
        (8, 2, (0, 0)),  # T = 0
        (8, 2, (3, 2)),  # a bias that is not square
    ])
    def test_causal_attention_shape_errors(self, k_cols, heads, bias_shape):
        k = param(rnd((6, k_cols), 96))
        with pytest.raises(ShapeError):
            param(rnd((6, 8), 95)).causal_attention(k, k, heads, np.zeros(bias_shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_causal_attention_masks_future_keys_exactly(self, dtype):
        # two sequences of 9 rows, two heads of 16 columns; value row j of
        # head 0 is one-hot at column j, so head 0's output row i holds its
        # attention weights over the keys, exactly
        t, n = 9, 18
        q = np.abs(Rng(22).normal((n, 32), dtype=dtype))
        k = Rng(23).normal((n, 32), dtype=dtype)
        k[t - 1::t] = 1e4  # a huge score of the last key, future to every row but the last
        v = np.zeros((n, 32), dtype=dtype)
        v[np.arange(n), np.arange(n) % t] = 1.0
        p = param(q).causal_attention(param(k), param(v), 2, causal_bias(t, dtype)).data
        p = p[:, :t].reshape(2, t, t)
        future = np.arange(t) > np.arange(t)[:, None]
        assert (p[:, future] == 0.0).all() and (p[:, :t - 1][:, ~future[:t - 1]] > 0.0).all()
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)

    def test_cross_entropy(self):
        targets = np.array([1, 0, 3, 2])
        check_grads(lambda a: a.cross_entropy_mean(targets), rnd((4, 4), 23))

    def test_cross_entropy_matches_manual(self):
        x = rnd((3, 5), 24)
        t = np.array([4, 0, 2])
        ce = param(x).cross_entropy_mean(t).item()
        manual = np.mean(
            [np.log(np.exp(x[i]).sum()) - x[i, t[i]] for i in range(3)]
        )
        assert abs(ce - manual) < 1e-12

    def test_cross_entropy_length_mismatch(self):
        with pytest.raises(ShapeError):
            param(rnd((3, 4), 25)).cross_entropy_mean(np.array([0, 1]))


# The numpy expressions the fused ops replaced, kept as bitwise oracles. Each
# takes the op's inputs and the gradient `g` of its output, and returns the
# forward value followed by each input's gradient.

def expression_layernorm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gxhat = g * gain
    dx = inv * (gxhat
                - gxhat.mean(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
    return gain * xhat + bias, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def expression_matmul_bias(x, w, b, g):
    # the replaced `x.matmul(w) + b`: a broadcast add whose bias gradient summed g's rows
    return matmul(x, w) + b, matmul(g, w.T), matmul(x.T, g), g.sum(axis=0)


def expression_causal_softmax(x, scale, g):
    # the replaced `(x * scale + mask).softmax_rows()`, mask from the removed model.causal_mask;
    # returns the softmax and the gradient of x
    t = x.shape[-1]
    mask = np.zeros((t, t), dtype=x.dtype)
    mask[np.triu_indices(t, k=1)] = -1e30
    z = x * scale + mask
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    y = e / e.sum(axis=-1, keepdims=True)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y, (y * (g - dot)) * scale


def expression_cross_entropy_mean(x, targets, g):
    rows = np.arange(x.shape[0])
    m = x.max(axis=-1, keepdims=True)
    lse = m.squeeze(-1) + np.log(np.exp(x - m).sum(axis=-1))
    loss = np.asarray((lse - x[rows, targets]).mean(), dtype=x.dtype)
    p = np.exp(x - m)
    p /= p.sum(axis=-1, keepdims=True)
    p[rows, targets] -= 1.0
    return loss, (g / x.shape[0]) * p


def expression_causal_attention(q, k, v, n_heads, t, g):
    # the replaced chain: heads split by reshape and permute, `numerics.matmul`
    # products with a transposed k, the causal softmax, heads merged back
    n, d = q.shape
    b, hd = n // t, d // n_heads
    split = lambda a: a.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3)
    merge = lambda a: a.transpose(0, 2, 1, 3).reshape(n, d)
    q4, k4, v4 = split(q), split(k), split(v)
    g4 = np.ascontiguousarray(split(g))  # the chain's gradient copies left g contiguous
    att, ds = expression_causal_softmax(matmul(q4, k4.swapaxes(-1, -2)), 1.0 / math.sqrt(hd),
                                        matmul(g4, v4.swapaxes(-1, -2)))
    return (merge(matmul(att, v4)), merge(matmul(ds, k4)),
            merge(matmul(q4.swapaxes(-1, -2), ds).swapaxes(-1, -2)),
            merge(matmul(att.swapaxes(-1, -2), g4)))


def expression_act(x, kind, g):
    return activation(x, kind), g * activation_grad(x, kind)


def expression_scale_blocks(a, scale, g):
    # the repeated (T, d) scale of the replaced `a * scale.repeat_cols(d // m)`
    t, m = scale.shape
    rep = np.repeat(scale, a.shape[1] // m, axis=1)
    return a * rep, g * rep, (g * a).reshape(t, m, -1).sum(axis=2)


def through_tape(op, arrays, g):
    """Run op on leaf Tensors over `arrays`, backpropagate `g` from its output.

    A non-scalar output is reduced as sum(out * g), whose gradient at the
    output is exactly g; a scalar output is backpropagated from itself
    (g = 1). Returns the forward value and each leaf's gradient.
    """
    leaves = [param(a) for a in arrays]
    out = op(*leaves)
    (out if out.data.ndim == 0 else (out * Tensor(g)).sum()).backward()
    return [out.data] + [t.grad for t in leaves]


class TestBitwiseOracles:
    """Forward values and gradients equal the replaced expressions byte for
    byte, and no op writes its inputs (forward or backward)."""

    def cases(self, dtype):
        r = lambda shape, seed, std=1.0: Rng(seed).normal(shape, std=std, dtype=dtype)
        targets = np.arange(320) * 7 % 256
        ce_g = np.ones((), dtype=dtype)
        for n, d in ((1, 128), (40, 128), (512, 128), (40, 96)):
            x, gain, bias, g = r((n, d), 60, 3.0), r((d,), 61) + 1.0, r((d,), 62), r((n, d), 63)
            yield (f"layernorm {n}x{d}", lambda a, b, c: a.layernorm(b, c), [x, gain, bias], g,
                   expression_layernorm(x, gain, bias, g))
        for n, k, m in ((40, 128, 512), (40, 512, 128), (320, 128, 256)):  # FFN up, down, head
            x, w, b, g = r((n, k), 74), r((k, m), 75, 0.02), r((m,), 76), r((n, m), 77)
            x[2] = b[:3] = g[1] = g[:, 4] = -0.0
            yield (f"matmul bias {n}x{k}x{m}", lambda a, c, d: a.matmul(c, d), [x, w, b], g,
                   expression_matmul_bias(x, w, b, g))
        # (B, T, d, heads): T = 100 spans two K blocks of the context product,
        # and 80-column heads two of the scores product
        for b, t, d, h in ((3, 1, 128, 4), (2, 40, 128, 4), (1, 63, 128, 4), (2, 64, 128, 4),
                           (1, 100, 128, 4), (1, 40, 160, 2)):
            q, k, v, g = (r((b * t, d), seed, 2.0) for seed in (64, 65, 66, 67))
            q[b * t // 2] = -0.0
            bias = causal_bias(t, dtype)
            bias.flags.writeable = False
            yield (f"causal_attention B{b} T{t} d{d} h{h}",
                   lambda x, y, z, h=h, bias=bias: x.causal_attention(y, z, h, bias), [q, k, v], g,
                   expression_causal_attention(q, k, v, h, t, g))
        x = r((320, 256), 66, 3.0)
        yield ("cross_entropy_mean", lambda a: a.cross_entropy_mean(targets), [x], ce_g,
               expression_cross_entropy_mean(x, targets, ce_g))
        for kind in ("relu", "gelu_tanh", "silu"):
            x, g = r((40, 512), 69, 3.0), r((40, 512), 70)
            yield (f"act {kind}", lambda a, k=kind: a.act(k), [x], g, expression_act(x, kind, g))
        for m in (32, 512):  # per expert (expert_size 16), per neuron
            a, s, g = r((40, 512), 71), r((40, m), 72), r((40, 512), 73)
            a[:, :16] = -0.0  # a block whose products are all signed zeros
            a[3, ::5] = s[0] = g[1] = -0.0
            yield (f"scale_blocks m={m}", lambda x, y: x.scale_blocks(y), [a, s], g,
                   expression_scale_blocks(a, s, g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_gradients_equal_expressions(self, dtype):
        for name, op, arrays, g, want in self.cases(dtype):
            before = [a.tobytes() for a in arrays + [g]]
            got = through_tape(op, arrays, g)
            assert [a.tobytes() for a in arrays + [g]] == before, f"{name} wrote an input"
            assert len(got) == len(want), name
            for i, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == b.dtype == dtype, (name, i)
                assert a.shape == b.shape, (name, i)
                assert a.tobytes() == b.tobytes(), (name, i)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_causal_attention_backward_hands_blas_contiguous_heads(self, dtype, monkeypatch):
        # BLAS reads a strided operand differently (sparse_exec._union_ffn), so
        # the backward's products read the output gradient's heads from a
        # contiguous copy, as the replaced chain's gradient copies gave them;
        # at the covered shapes a strided view happens to give the same bytes
        b, t, d, h = 2, 40, 128, 4
        q, k, v, g = (Rng(seed).normal((b * t, d), std=2.0, dtype=dtype)
                      for seed in (64, 65, 66, 67))
        g_heads = g.reshape(b, t, h, d // h).transpose(0, 2, 1, 3)
        matmul, seen = numerics.matmul, []

        def spy(*operands):
            seen.extend(a.flags.c_contiguous for a in operands
                        if a.shape == g_heads.shape and np.array_equal(a, g_heads))
            return matmul(*operands)

        monkeypatch.setattr(numerics, "matmul", spy)
        through_tape(lambda x, y, z: x.causal_attention(y, z, h, causal_bias(t, dtype)),
                     [q, k, v], g)
        assert seen == [True, True]  # d_att = g @ v^T and dv = att^T @ g


class TestGraph:
    def test_diamond_reuse_accumulates(self):
        # loss = sum(x*x + x) uses x twice; d/dx = 2x + 1
        x = param(rnd((4,), 26))
        ((x * x) + x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 1, atol=1e-12)

    def test_no_grad_skips_tape(self):
        x = param(rnd((3,), 27))
        with no_grad():
            y = (x * x).sum()
        assert y._node is None and not y.requires_grad

    def test_backward_needs_scalar(self):
        with pytest.raises(ShapeError):
            param(rnd((3,), 28)).backward()

    def test_nonfinite_loss_raises(self):
        x = param(np.array([np.inf]))
        with pytest.raises(NumericError):
            x.sum().backward()

    def test_backward_frees_intermediates(self):
        x, w = param(rnd((4, 8), 50)), param(rnd((8, 8), 51))
        h = x.matmul(w)
        freed = weakref.ref(h.data)
        loss = h.act("gelu_tanh").square().sum()
        del h
        assert freed() is not None  # the tape holds it until backward consumes it
        loss.backward()
        assert freed() is None
        assert x.grad is not None and w.grad is not None
        assert loss.grad is None

    def test_tape_keeps_only_what_backward_reads(self):
        # the embedding gather feeds only `+`, the `+` output only a layernorm
        # (which keeps its own xhat), and the attention output only `+`: none
        # is read by a backward. The layernorm output is a matmul input, which
        # the matmul's weight gradient reads.
        wte, g, b = param(rnd((10, 8), 54)), param(np.ones(8)), param(np.zeros(8))
        wq, wk, wv = param(rnd((8, 8), 55)), param(rnd((8, 8), 56)), param(rnd((8, 8), 58))
        pos = param(rnd((6, 8), 57))
        gather = wte.rows(np.array([1, 3, 3, 0, 9, 2]))
        x = gather + pos
        xn = x.layernorm(g, b)
        ctx = xn.matmul(wq).causal_attention(xn.matmul(wk), xn.matmul(wv), 2,
                                             causal_bias(3, np.float64))
        loss = (ctx + pos).square().sum()
        freed = {name: weakref.ref(t.data) for name, t in
                 (("gather", gather), ("sum", x), ("attention", ctx), ("matmul input", xn))}
        del gather, x, xn, ctx
        assert {name: ref() is None for name, ref in freed.items()} == {
            "gather": True, "sum": True, "attention": True, "matmul input": False}
        loss.backward()
        assert freed["matmul input"]() is None
        assert all(t.grad is not None for t in (wte, g, b, wq, wk, wv, pos))

    def test_second_backward_from_the_same_loss_raises(self):
        x = param(rnd((4,), 52))
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="run the forward pass again"):
            loss.backward()
        assert np.array_equal(x.grad, first)

    def test_backward_through_a_consumed_shared_node_raises(self):
        x = param(rnd((4,), 53))
        shared = x.square()
        shared.sum().backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="backward already ran through this graph"):
            (shared * 3.0).sum().backward()
        assert np.array_equal(x.grad, first)  # raised before any gradient was written

    def test_sum_of_two_leaves_gives_each_its_own_gradient(self):
        # `+` hands its output gradient to both operands: a first gradient is
        # kept as it is, so the second operand must get a copy
        a, b, g = param(rnd((4, 3), 84)), param(rnd((4, 3), 85)), rnd((4, 3), 86)
        ((a + b) * Tensor(g)).sum().backward()
        assert np.array_equal(a.grad, g) and np.array_equal(b.grad, g)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad[...] = 0.0
        assert np.array_equal(b.grad, g)

    def test_sum_of_a_leaf_with_itself_doubles_the_gradient(self):
        x, g = param(rnd((4, 3), 87)), rnd((4, 3), 88)
        ((x + x) * Tensor(g)).sum().backward()
        assert np.array_equal(x.grad, 2 * g)

    def test_constants_do_not_require_grad(self):
        c = Tensor(np.ones(3))
        x = param(np.ones(3))
        (x + c).sum().backward()
        assert c.grad is None and x.grad is not None
