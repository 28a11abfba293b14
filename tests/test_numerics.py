import math

import numpy as np
import pytest

from moefy import numerics
from moefy.numerics import (
    NumericError,
    Rng,
    ShapeError,
    GELU_COEF,
    GELU_CUBIC,
    activation,
    activation_grad,
    blas_threads,
    matmul,
    sigmoid,
)

from oracles import finite_diff_grad


def triple_loop(a, b):
    """Independent oracle, written here so it can't share code with the library."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += float(a[i, t]) * float(b[t, j])
    return out


def matmul_naive(a, b):
    """Triple-loop reference that accumulates in the operands' own dtype."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.result_type(a, b))
    for i in range(m):
        for j in range(n):
            s = out.dtype.type(0)
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def zero_start_matmul(a, b):
    """The loop matmul replaced, kept as its bitwise oracle: a zero output plus each 64-wide block."""
    k = a.shape[-1]
    out = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.result_type(a, b))
    for k0 in range(0, k, 64):
        k1 = min(k0 + 64, k)
        out += a[..., k0:k1] @ b[..., k0:k1, :]
    return out


class TestMatmul:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (2, 3)])
    @pytest.mark.parametrize("k", [0, 5, 64, 130])
    def test_bitwise_equal_to_zero_start_loop(self, dtype, lead, k):
        rng = Rng(8)
        a = rng.normal(lead + (6, k), std=1.0, dtype=dtype)
        b = rng.normal(lead + (k, 5), std=1.0, dtype=dtype)
        # products that underflow to -0.0: BLAS can sum them to -0.0, the zero start to +0.0
        tiny = np.finfo(dtype).tiny
        a[..., ::3, :] = -tiny
        b[..., :, ::2] = tiny
        got = matmul(a, b)
        assert got.dtype == dtype
        assert got.tobytes() == zero_start_matmul(a, b).tobytes()
        assert not np.signbit(got[..., ::3, ::2]).any()
        assert not np.signbit(got[got == 0]).any()  # the autograd keeps it as a gradient

    def test_identity(self):
        a = np.eye(2, dtype=np.float32)
        b = np.array([[1, 2], [3, 4]], dtype=np.float32)
        assert np.array_equal(matmul(a, b), b)

    def test_projector(self):
        a = np.array([[1, 0], [0, 0]], dtype=np.float32)
        b = np.array([[5, 6], [7, 8]], dtype=np.float32)
        assert np.array_equal(matmul(a, b), [[5, 6], [0, 0]])

    def test_matches_triple_loop_oracle(self):
        rng = Rng(11)
        a = rng.normal((7, 5), std=1.0)
        b = rng.normal((5, 3), std=1.0)
        assert np.abs(matmul(a, b) - triple_loop(a, b)).max() < 1e-6

    def test_blocked_reduction_spans_blocks(self):
        rng = Rng(5)
        a = rng.normal((9, 200), std=1.0, dtype=np.float64)
        b = rng.normal((200, 17), std=1.0, dtype=np.float64)
        assert np.allclose(matmul(a, b), triple_loop(a, b), atol=1e-9)

    def test_naive_path_agrees(self):
        rng = Rng(3)
        a = rng.normal((4, 6), std=1.0)
        b = rng.normal((6, 2), std=1.0)
        assert np.allclose(matmul(a, b), matmul_naive(a, b), atol=1e-6)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3), dtype=np.float32), np.zeros((4, 2), dtype=np.float32))

    def test_bit_deterministic_across_runs(self):
        rng = Rng(42)
        a = rng.normal((130, 190), std=1.0)
        b = rng.normal((190, 70), std=1.0)
        first = matmul(a, b)
        for _ in range(3):
            assert np.array_equal(matmul(a, b), first)

    def test_stacked_matches_per_slice_oracle(self):
        rng = Rng(12)
        a = rng.normal((2, 3, 5, 70), std=1.0, dtype=np.float64)
        b = rng.normal((2, 3, 70, 4), std=1.0, dtype=np.float64)
        out = matmul(a, b)
        assert out.shape == (2, 3, 5, 4)
        for i in range(2):
            for j in range(3):
                assert np.allclose(out[i, j], triple_loop(a[i, j], b[i, j]), atol=1e-9)

    def test_stacked_shape_errors(self):
        with pytest.raises(ShapeError):  # leading shapes differ
            matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))
        with pytest.raises(ShapeError):  # stacked with plain 2-D
            matmul(np.zeros((2, 3, 4)), np.zeros((4, 5)))
        with pytest.raises(ShapeError):
            matmul(np.zeros(3), np.zeros((3, 2)))


class TestActivation:
    def test_relu(self):
        assert activation(np.array([-1.5]), "relu")[0] == 0.0
        assert activation(np.array([2.0]), "relu")[0] == 2.0

    def test_silu_zero(self):
        assert activation(np.array([0.0]), "silu")[0] == 0.0

    def test_gelu_tanh_at_one(self):
        # hand evaluation: 0.5*1*(1+tanh(0.7978845608*(1+0.044715)))
        got = activation(np.array([1.0], dtype=np.float64), "gelu_tanh")[0]
        assert abs(got - 0.841192) < 1e-6

    def test_relu_monotone(self):
        xs = np.sort(Rng(1).normal((512,), std=3.0, dtype=np.float64))
        ys = activation(xs, "relu")
        assert (np.diff(ys) >= 0).all()

    def test_silu_lower_bound(self):
        xs = np.linspace(-20, 20, 200001)
        assert activation(xs, "silu").min() >= -0.2785

    def test_shape_preserved(self):
        x = Rng(2).normal((3, 5), std=1.0)
        for kind in numerics.ACTIVATIONS:
            assert activation(x, kind).shape == x.shape

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            activation(np.zeros(1), "tanh")


def expression_activation(h, kind):
    """The one-expression forms activation replaced, kept as its bitwise oracle."""
    if kind == "relu":
        return np.maximum(h, 0)
    if kind == "silu":
        return h * sigmoid(h)
    u = GELU_COEF * (h + GELU_CUBIC * h * h * h)
    return 0.5 * h * (1.0 + np.tanh(u))


def expression_activation_grad(h, kind):
    """The one-expression forms activation_grad replaced, kept as its bitwise oracle."""
    if kind == "relu":
        return (h > 0).astype(h.dtype)
    if kind == "silu":
        s = sigmoid(h)
        return s * (1.0 + h * (1.0 - s))
    u = GELU_COEF * (h + GELU_CUBIC * h * h * h)
    t = np.tanh(u)
    du = GELU_COEF * (1.0 + 3.0 * GELU_CUBIC * h * h)
    return 0.5 * (1.0 + t) + 0.5 * h * (1.0 - t * t) * du


def activation_inputs(dtype):
    """Row counts the model runs (empty, one decode token, a window, a batch),
    one that ends in a partial row block, a 3-D array and strided views, one
    of them tall enough to run in row blocks."""
    rng = Rng(11)
    out = {f"({n}, 512)": rng.normal((n, 512), std=3.0, dtype=dtype)
           for n in (0, 1, 40, 2048, 2 * numerics.ACT_BLOCK_ROWS + 37)}
    out["3-D"] = rng.normal((4, 10, 96), std=3.0, dtype=dtype)
    out["strided"] = rng.normal((40, 1024), std=3.0, dtype=dtype)[:, ::2]
    out["tall strided"] = rng.normal((1500, 192), std=3.0, dtype=dtype)[::2, ::3]
    out["tall Fortran"] = np.asfortranarray(rng.normal((300, 64), std=3.0, dtype=dtype))
    return out


class TestActivationBitwise:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", numerics.ACTIVATIONS)
    @pytest.mark.parametrize("fn,oracle", [(activation, expression_activation),
                                           (activation_grad, expression_activation_grad)])
    def test_equals_expression_and_keeps_input(self, fn, oracle, kind, dtype):
        for name, h in activation_inputs(dtype).items():
            before = h.tobytes()
            got, want = fn(h, kind), oracle(h, kind)
            assert h.tobytes() == before, name
            assert got.dtype == want.dtype == dtype, name
            assert got.shape == want.shape == h.shape, name
            assert got.strides == want.strides, name
            assert got.tobytes() == want.tobytes(), name


def two_branch_sigmoid(x):
    """The boolean-mask formula sigmoid replaced, kept as its bitwise oracle."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, 1e-8, -1e-8, 20.0, -20.0, 88.0, -88.0, 1e4, -1e4, np.nan, -np.nan]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_two_branch_formula(self, dtype):
        x = np.array(self.EDGES, dtype=dtype)
        got = sigmoid(x)
        assert got.dtype == dtype
        assert got.tobytes() == two_branch_sigmoid(x).tobytes()
        block = Rng(3).normal((64, 32), std=8.0, dtype=dtype)
        assert sigmoid(block).tobytes() == two_branch_sigmoid(block).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_raises_exactly_where_two_branch_formula_raises(self, dtype):
        # exp(-|x|) underflows at +-1e4 in both; every other edge must not raise
        raised = []
        for v in self.EDGES:
            x = np.array([v], dtype=dtype)
            outcome = []
            for f in (sigmoid, two_branch_sigmoid):
                try:
                    with np.errstate(all="raise"):
                        outcome.append(f(x).tobytes())
                except FloatingPointError:
                    outcome.append("raised")
            assert outcome[0] == outcome[1], v
            if outcome[0] == "raised":
                raised.append(v)
        assert raised == [1e4, -1e4]

    def test_integer_input_returns_float64(self):
        x = np.array([-3, 0, 2], dtype=np.int64)
        assert sigmoid(x).dtype == np.float64
        assert sigmoid(x).tobytes() == two_branch_sigmoid(x).tobytes()
        # narrow integers are computed in float64 too (the old formula's exp
        # of an int8 array ran in float16)
        small = x.astype(np.int8)
        assert sigmoid(small).tobytes() == sigmoid(x.astype(np.float64)).tobytes()


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda p: float(p[0] ** 2), np.array([3.0]), eps=1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_sigmoid_derivative_at_zero(self):
        g = finite_diff_grad(lambda p: float(sigmoid(p)[0]), np.array([0.0]), eps=1e-5)
        assert abs(g[0] - 0.25) < 1e-6

    def test_linear_exact(self):
        coef = np.array([1.5, -2.25, 0.5])
        g = finite_diff_grad(lambda p: float(coef @ p), np.zeros(3), eps=1e-4)
        assert np.abs(g - coef).max() < 1e-9

    def test_nonfinite_raises(self):
        with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(NumericError):
            finite_diff_grad(lambda p: float(np.log(p[0])), np.array([0.0]), eps=1e-3)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal((10,), std=1.0)
        b = Rng(123).normal((10,), std=1.0)
        assert np.array_equal(a, b)

    def test_split_streams_differ_and_are_stable(self):
        base = Rng(7)
        a1 = base.split("alpha").normal((5,), std=1.0)
        a2 = Rng(7).split("alpha").normal((5,), std=1.0)
        b = Rng(7).split("beta").normal((5,), std=1.0)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_sigmoid_stable_extremes(self):
        s = sigmoid(np.array([-1000.0, 1000.0]))
        assert s[0] == 0.0 and s[1] == 1.0


def test_blas_threads_reads_openblas_then_omp(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert blas_threads() == "default"
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert blas_threads() == "3"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert blas_threads() == "1"
