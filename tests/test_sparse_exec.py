import numpy as np
import pytest

from moefy.grouping import apply_partition, group_experts_random
from moefy.model import FfnLayer, GluFfnLayer, ModelConfig
from moefy.numerics import Rng, activation
from moefy.sparse_exec import (
    BENCH_COLUMNS,
    bench,
    flops_per_token,
    format_bench_report,
    pack,
    sparse_ffn_forward,
)

from ffn_blocks import dense_ffn


def packed_layer(rng, d=8, f=24, n=6, kind="two_matmul", dtype=np.float32, act="gelu_tanh"):
    # init-scale weights keep outputs O(1) so absolute tolerances are meaningful
    if kind == "two_matmul":
        layer = FfnLayer(rng.normal((d, f), std=0.3, dtype=dtype),
                         rng.normal((f,), std=0.2, dtype=dtype),
                         rng.normal((f, d), std=0.3, dtype=dtype),
                         rng.normal((d,), std=0.2, dtype=dtype), act)
    else:
        layer = GluFfnLayer(rng.normal((d, f), std=0.3, dtype=dtype),
                            rng.normal((d, f), std=0.3, dtype=dtype),
                            rng.normal((f, d), std=0.3, dtype=dtype))
    permuted = apply_partition(layer, group_experts_random(f, n, rng.split("p")))
    return permuted, pack(permuted)


def dense_mask_oracle(layer, x, expert_sel, expert_size):
    scale = np.zeros(layer.W2.shape[0] if isinstance(layer, FfnLayer) else layer.W_down.shape[0],
                     dtype=x.dtype)
    for e in expert_sel:
        scale[e * expert_size:(e + 1) * expert_size] = 1.0
    if isinstance(layer, FfnLayer):
        a = activation(x @ layer.W1 + layer.b1, layer.activation)
        return (a * scale) @ layer.W2 + layer.b2
    a = activation(x @ layer.W_gate, "silu") * (x @ layer.W_up)
    return (a * scale) @ layer.W_down


class TestPack:
    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_round_trip_bit_identical(self, kind):
        # every slab is its expert's dense columns / rows, bit for bit
        layer, packed = packed_layer(Rng(0), kind=kind)
        e = packed.expert_size
        for x in range(packed.n_experts):
            cols = slice(x * e, (x + 1) * e)
            if kind == "two_matmul":
                assert np.array_equal(packed.up[x], layer.W1[:, cols])
                assert np.array_equal(packed.b1[x], layer.b1[cols])
                assert np.array_equal(packed.down[x], layer.W2[cols])
            else:
                assert np.array_equal(packed.gate[x], layer.W_gate[:, cols])
                assert np.array_equal(packed.up[x], layer.W_up[:, cols])
                assert np.array_equal(packed.down[x], layer.W_down[cols])
        if kind == "two_matmul":
            assert np.array_equal(packed.b2, layer.b2)

    def test_expert_zero_slice_is_leading_columns(self):
        layer, packed = packed_layer(Rng(1))
        e = packed.expert_size
        assert np.array_equal(packed.up[0], layer.W1[:, :e])
        assert np.array_equal(packed.down[0], layer.W2[:e, :])

    def test_requires_permuted_layer(self):
        rng = Rng(2)
        layer = FfnLayer(rng.normal((4, 8), std=1.0), rng.normal((8,), std=1.0),
                         rng.normal((8, 4), std=1.0), rng.normal((4,), std=1.0))
        with pytest.raises(ValueError):
            pack(layer)


class TestSparseForward:
    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_all_experts_matches_dense(self, kind):
        layer, packed = packed_layer(Rng(3), kind=kind)
        x = Rng(4).normal((5, 8), std=1.0)
        sel = [np.arange(6)] * 5
        y = sparse_ffn_forward(packed, sel, x)
        dense = dense_ffn(layer, x)
        assert np.abs(y - dense).max() < 1e-5

    def test_empty_selection(self):
        layer, packed = packed_layer(Rng(5))
        x = Rng(6).normal((3, 8), std=1.0)
        y = sparse_ffn_forward(packed, [np.array([], dtype=np.int64)] * 3, x)
        assert np.allclose(y, np.tile(layer.b2, (3, 1)))

    def test_empty_selection_swiglu_zero(self):
        _, packed = packed_layer(Rng(7), kind="swiglu")
        y = sparse_ffn_forward(packed, [np.array([], dtype=np.int64)], Rng(8).normal((1, 8), std=1.0))
        assert np.allclose(y, 0.0)

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_random_subsets_match_dense_mask_oracle(self, kind):
        rng = Rng(9)
        layer, packed = packed_layer(rng, kind=kind)
        for trial in range(20):
            srng = Rng(100 + trial)
            x = srng.normal((4, 8), std=1.0)
            sels = [np.sort(srng.choice(6, int(srng.integers(1, 6)))) for _ in range(4)]
            y = sparse_ffn_forward(packed, sels, x)
            for t in range(4):
                ref = dense_mask_oracle(layer, x[t:t + 1], sels[t], packed.expert_size)
                assert np.abs(y[t] - ref[0]).max() < 1e-5

    def test_unsorted_selection_rejected(self):
        _, packed = packed_layer(Rng(10))
        x = np.zeros((1, 8), dtype=np.float32)
        with pytest.raises(ValueError):
            sparse_ffn_forward(packed, [np.array([2, 1])], x)

    def test_duplicate_selection_rejected(self):
        _, packed = packed_layer(Rng(11))
        with pytest.raises(ValueError):
            sparse_ffn_forward(packed, [np.array([1, 1])], np.zeros((1, 8), np.float32))

    def test_out_of_range_rejected(self):
        _, packed = packed_layer(Rng(12))
        with pytest.raises(ValueError):
            sparse_ffn_forward(packed, [np.array([6])], np.zeros((1, 8), np.float32))

    def test_identical_masks_batched_same_result(self):
        _, packed = packed_layer(Rng(13))
        x = Rng(14).normal((6, 8), std=1.0)
        sel = np.array([1, 3])
        batched = sparse_ffn_forward(packed, [sel] * 6, x)
        single = np.vstack([sparse_ffn_forward(packed, [sel], x[t:t + 1]) for t in range(6)])
        assert np.abs(batched - single).max() < 1e-6


def model_shape_layer(kind, dtype, d=128, f=512, n=32):
    """The trained model's FFN shape (expert_size 16) with fan-in scaled weights."""
    rng = Rng(20)
    up_std, down_std = 1.0 / np.sqrt(d), 1.0 / np.sqrt(f)
    if kind == "two_matmul":
        layer = FfnLayer(rng.normal((d, f), std=up_std, dtype=dtype),
                         rng.normal((f,), std=0.2, dtype=dtype),
                         rng.normal((f, d), std=down_std, dtype=dtype),
                         rng.normal((d,), std=0.2, dtype=dtype), "gelu_tanh")
    else:
        layer = GluFfnLayer(rng.normal((d, f), std=up_std, dtype=dtype),
                            rng.normal((d, f), std=up_std, dtype=dtype),
                            rng.normal((f, d), std=down_std, dtype=dtype))
    permuted = apply_partition(layer, group_experts_random(f, n, rng.split("p")))
    return permuted, pack(permuted)


def distinct_selections(n=32, t=64, seed=21):
    """One distinct sorted selection per token, including empty and all-expert ones."""
    rng = Rng(seed)
    sels = [np.array([], dtype=np.int64), np.arange(n)]
    sels += [np.sort(rng.choice(n, int(rng.integers(1, n)))) for _ in range(t - 3)]
    sels.append(np.array([], dtype=np.int64))
    return sels


class TestExpertMajorDispatch:
    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
    def test_model_shape_matches_dense_mask_oracle(self, kind, dtype, tol):
        layer, packed = model_shape_layer(kind, dtype)
        sels = distinct_selections()
        assert len({s.tobytes() for s in sels}) == len(sels) - 1  # only the two empties repeat
        x = Rng(22).normal((len(sels), 128), std=1.0, dtype=dtype)
        y = sparse_ffn_forward(packed, sels, x)
        assert y.dtype == dtype
        for t, sel in enumerate(sels):
            ref = dense_mask_oracle(layer, x[t:t + 1], sel, packed.expert_size)
            assert np.abs(y[t] - ref[0]).max() < tol, t

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_repeat_calls_bitwise_identical(self, kind):
        _, packed = model_shape_layer(kind, np.float32)
        sels = distinct_selections()
        x = Rng(23).normal((len(sels), 128), std=1.0)
        first = sparse_ffn_forward(packed, sels, x)
        assert first.tobytes() == sparse_ffn_forward(packed, sels, x).tobytes()

    def test_descending_ids_across_token_boundary_accepted(self):
        layer, packed = packed_layer(Rng(24))
        x = Rng(25).normal((2, 8), std=1.0)
        sels = [np.array([5]), np.array([1])]
        y = sparse_ffn_forward(packed, sels, x)
        for t in range(2):
            ref = dense_mask_oracle(layer, x[t:t + 1], sels[t], packed.expert_size)
            assert np.abs(y[t] - ref[0]).max() < 1e-5

    @pytest.mark.parametrize("bad", [[3, 2], [4, 4], [32], [-1], [0, 31, 32]])
    def test_one_bad_token_in_a_batch_rejected(self, bad):
        _, packed = model_shape_layer("two_matmul", np.float32)
        sels = distinct_selections()
        sels[37] = np.array(bad)
        x = np.zeros((len(sels), 128), dtype=np.float32)
        with pytest.raises(ValueError, match="token 37"):
            sparse_ffn_forward(packed, sels, x)


class TestFlops:
    def test_two_matmul_dense_count(self):
        cfg = ModelConfig(d_model=4, d_ffn=8, n_layers=1, n_heads=1, expert_size=4,
                          vocab_size=16, max_seq_len=8).validate()
        rep = flops_per_token(cfg, mean_selected=2)
        assert rep.dense_flops_per_token == 128  # 4 * d_model * d_ffn

    def test_router_share_swiglu_expert32(self):
        cfg = ModelConfig(d_model=64, d_ffn=256, n_layers=2, n_heads=2, expert_size=32,
                          ffn_kind="swiglu", vocab_size=16, max_seq_len=8).validate()
        rep = flops_per_token(cfg, mean_selected=4)
        assert abs(rep.router_share_of_ffn - 1.0 / 96.0) < 1e-12

    def test_router_share_two_matmul_expert32(self):
        cfg = ModelConfig(d_model=64, d_ffn=256, n_layers=2, n_heads=2, expert_size=32,
                          vocab_size=16, max_seq_len=8).validate()
        rep = flops_per_token(cfg, mean_selected=4)
        assert abs(rep.router_share_of_ffn - 1.0 / 64.0) < 1e-12

    def test_half_selected_halves_ffn_term(self):
        cfg = ModelConfig(d_model=8, d_ffn=16, n_layers=3, n_heads=2, expert_size=4,
                          vocab_size=16, max_seq_len=8).validate()
        rep = flops_per_token(cfg, mean_selected=cfg.n_experts / 2)
        ffn_term = rep.sparse_flops_per_token - rep.router_flops_per_token
        assert ffn_term == rep.dense_flops_per_token / 2

    def test_linearity_exact(self):
        cfg = ModelConfig(d_model=8, d_ffn=16, n_layers=2, n_heads=2, expert_size=4,
                          vocab_size=16, max_seq_len=8).validate()
        for k in range(cfg.n_experts + 1):
            rep = flops_per_token(cfg, mean_selected=k)
            expect = rep.dense_flops_per_token * (k / cfg.n_experts) + rep.router_flops_per_token
            assert rep.sparse_flops_per_token == expect

    def test_per_layer_selection_list(self):
        cfg = ModelConfig(d_model=8, d_ffn=16, n_layers=2, n_heads=2, expert_size=4,
                          vocab_size=16, max_seq_len=8).validate()
        rep = flops_per_token(cfg, mean_selected=[1.0, 3.0])
        same = flops_per_token(cfg, mean_selected=2.0)
        assert rep.sparse_flops_per_token == same.sparse_flops_per_token
        with pytest.raises(ValueError):
            flops_per_token(cfg, mean_selected=[1.0])


class TestBench:
    def test_row_count_and_format(self):
        rep = bench(shapes=((64, 256),), batch_sizes=(1,), sparsity_grid=(0.0, 0.5),
                    expert_size=32, trials=30, warmups=5, seed=1)
        assert len(rep.rows) == 2 * 1 * 2  # grid * shapes * paths
        text = format_bench_report(rep)
        header = text.splitlines()[len(rep.meta) + len(rep.warnings)]
        assert header.split("\t") == list(BENCH_COLUMNS)

    def test_trial_floor_enforced(self):
        with pytest.raises(ValueError):
            bench(trials=10)
        with pytest.raises(ValueError):
            bench(warmups=2)
