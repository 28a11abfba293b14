"""Every autograd op is checked against central finite differences in float64."""

import numpy as np
import pytest

from moefy.autograd import Tensor, no_grad, param
from moefy.numerics import NumericError, Rng, ShapeError, finite_diff_grad

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
    def test_add_broadcast_bias(self):
        check_grads(lambda x, b: (x + b).square().mean(), rnd((4, 3), 0), rnd((3,), 1))

    def test_mul(self):
        check_grads(lambda a, b: (a * b).sum(), rnd((3, 3), 2), rnd((3, 3), 3))

    def test_mul_scalar_and_neg(self):
        check_grads(lambda a: (-a * 2.5).sum(), rnd((5,), 4))

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
        check_grads(lambda a, b: (a @ b).square().mean(), rnd((4, 3), 10), rnd((3, 5), 11))

    def test_transpose(self):
        check_grads(lambda a: (a.transpose() @ a).sum(), rnd((3, 4), 12))

    def test_rows_with_duplicates(self):
        idx = np.array([0, 2, 2, 1])
        check_grads(lambda a: a.rows(idx).square().sum(), rnd((4, 3), 13))

    def test_row_col_slice(self):
        check_grads(lambda a: a.row_slice(1, 3).sum(), rnd((5, 2), 14))
        check_grads(lambda a: a.col_slice(0, 2).square().sum(), rnd((3, 4), 15))

    def test_repeat_cols(self):
        check_grads(lambda a: (a.repeat_cols(3) * 0.5).square().sum(), rnd((2, 4), 16))


class TestFused:
    def test_layernorm(self):
        check_grads(
            lambda x, g, b: x.layernorm(g, b).square().mean(),
            rnd((6, 8), 17), rnd((8,), 18) + 1.0, rnd((8,), 19),
        )

    def test_softmax_rows(self):
        check_grads(lambda a: (a.softmax_rows() * rnd((4, 5), 21)).sum(), rnd((4, 5), 20))

    def test_softmax_rows_sum_to_one(self):
        p = param(rnd((7, 9), 22)).softmax_rows().data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

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
        assert y._backward is None and not y.requires_grad

    def test_backward_needs_scalar(self):
        with pytest.raises(ShapeError):
            param(rnd((3,), 28)).backward()

    def test_nonfinite_loss_raises(self):
        x = param(np.array([np.inf]))
        with pytest.raises(NumericError):
            x.sum().backward()

    def test_constants_do_not_require_grad(self):
        c = Tensor(np.ones(3))
        x = param(np.ones(3))
        (x + c).sum().backward()
        assert c.grad is None and x.grad is not None
