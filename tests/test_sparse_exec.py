import numpy as np
import pytest

from moefy import numerics, sparse_exec
from moefy.autograd import Tensor, param
from moefy.grouping import apply_partition, group_experts_random
from moefy.model import ModelConfig, ffn_param_names, get_ffn_layer, init_params
from moefy.numerics import Rng, activation
from moefy.sparse_exec import (
    BENCH_COLUMNS,
    _expert_runs,
    bench,
    flops_per_token,
    format_bench_report,
    pack,
    sparse_ffn_forward,
    sparse_ffn_graph,
)

from ffn_blocks import (KINDS, dense_ffn, expert_oracle, ffn_weights, permuted_block,
                        random_block)
from oracles import masked_dense_ffn


def packed_layer(rng, d=8, f=24, n=6, kind="two_matmul", dtype=np.float32, act="gelu_tanh"):
    # init-scale weights keep outputs O(1) so absolute tolerances are meaningful
    return permuted_block(rng, kind, d, f, n, std=0.3, bias_std=0.2, dtype=dtype, activation=act)


class TestPack:
    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_round_trip_bit_identical(self, kind):
        # every slab is its expert's dense rows / transposed columns, bit for bit
        params, packed = packed_layer(Rng(0), kind=kind)
        w, e = ffn_weights(params), packed.expert_size
        assert packed.up.shape == packed.down.shape == (packed.n_experts, e, 8)
        for x in range(packed.n_experts):
            cols = slice(x * e, (x + 1) * e)
            assert packed.up[x].tobytes() == w["up"][:, cols].T.tobytes()
            assert packed.down[x].tobytes() == w["down"][cols].tobytes()
            if kind == "two_matmul":
                assert packed.b1[x].tobytes() == w["b1"][cols].tobytes()
            else:
                assert packed.gate[x].tobytes() == w["gate"][:, cols].T.tobytes()
        if kind == "two_matmul":
            assert np.array_equal(packed.b2, w["b2"])
        else:
            assert packed.b1 is None and packed.b2 is None

    def test_expert_zero_slice_is_leading_columns(self):
        params, packed = packed_layer(Rng(1))
        e, w = packed.expert_size, ffn_weights(params)
        assert np.array_equal(packed.up[0], w["up"][:, :e].T)
        assert np.array_equal(packed.down[0], w["down"][:e, :])

    @pytest.mark.parametrize("kind", KINDS)
    def test_contiguous_copies_of_the_parameter_views(self, kind):
        params = random_block(Rng(2), kind, 8, 24, std=0.3, bias_std=0.2, expert_size=4)
        part = group_experts_random(24, 6, Rng(3))
        apply_partition(params, 0, part)
        view = get_ffn_layer(params, 0, part)
        packed = pack(view)
        assert packed.partition is part and packed.activation == view.activation
        for role in ("up", "gate", "down", "b1", "b2"):
            v, c = getattr(view, role), getattr(packed, role)
            if v is None:
                assert c is None, role
                continue
            assert c.flags.c_contiguous, role
            assert c.shape == v.shape and c.tobytes() == v.tobytes(), role
            for w in ffn_weights(params).values():
                assert not np.shares_memory(c, w), role

    def test_requires_permuted_layer(self):
        # an unpermuted view of either kind, straight from the parameters
        for kind in KINDS:
            cfg = ModelConfig(vocab_size=4, d_model=4, n_heads=1, n_layers=1, d_ffn=8,
                              max_seq_len=2, expert_size=4, ffn_kind=kind)
            layer = get_ffn_layer(init_params(cfg, Rng(2)), 0)
            with pytest.raises(ValueError, match="not permuted"):
                pack(layer)


def random_mask(rng, n_tok, n, low=1):
    """(n_tok, n) bool mask; each row selects `rng.choice(n, k)`, k in [low, n)."""
    mask = np.zeros((n_tok, n), dtype=bool)
    for row in mask:
        row[rng.choice(n, int(rng.integers(low, n)))] = True
    return mask


class TestSparseForward:
    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_all_experts_matches_dense(self, kind):
        params, packed = packed_layer(Rng(3), kind=kind)
        x = Rng(4).normal((5, 8), std=1.0)
        y = sparse_ffn_forward(packed, np.ones((5, 6), dtype=bool), x)
        dense = dense_ffn(params, x)
        assert np.abs(y - dense).max() < 1e-5

    def test_empty_selection(self):
        # an empty union runs no matmul: every row is exactly b2
        params, packed = packed_layer(Rng(5))
        x = Rng(6).normal((3, 8), std=1.0)
        y = sparse_ffn_forward(packed, np.zeros((3, 6), dtype=bool), x)
        assert y.tobytes() == np.tile(ffn_weights(params)["b2"], (3, 1)).tobytes()

    @pytest.mark.parametrize("n_tok", [1, 3])
    def test_empty_selection_swiglu_zero(self, n_tok):
        _, packed = packed_layer(Rng(7), kind="swiglu")
        x = Rng(8).normal((n_tok, 8), std=1.0)
        y = sparse_ffn_forward(packed, np.zeros((n_tok, 6), dtype=bool), x)
        assert y.tobytes() == np.zeros((n_tok, 8), np.float32).tobytes()

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_random_subsets_match_dense_mask_oracle(self, kind):
        rng = Rng(9)
        params, packed = packed_layer(rng, kind=kind)
        for trial in range(20):
            srng = Rng(100 + trial)
            x = srng.normal((4, 8), std=1.0)
            mask = random_mask(srng, 4, 6)
            y = sparse_ffn_forward(packed, mask, x)
            for t in range(4):
                ref = expert_oracle(params, x[t:t + 1], mask[t], packed.expert_size)
                assert np.abs(y[t] - ref[0]).max() < 1e-5

    def test_identical_masks_batched_same_result(self):
        _, packed = packed_layer(Rng(13))
        x = Rng(14).normal((6, 8), std=1.0)
        row = np.isin(np.arange(6), [1, 3])
        batched = sparse_ffn_forward(packed, np.tile(row, (6, 1)), x)
        single = np.vstack([sparse_ffn_forward(packed, row[None], x[t:t + 1]) for t in range(6)])
        assert np.abs(batched - single).max() < 1e-6


def model_shape_layer(kind, dtype, d=128, f=512, n=32):
    """The trained model's FFN shape (expert_size 16) with fan-in scaled weights."""
    return permuted_block(Rng(20), kind, d, f, n, std=1.0 / np.sqrt(d), bias_std=0.2,
                          down_std=1.0 / np.sqrt(f), dtype=dtype)


def distinct_masks(n=32, t=64, seed=21):
    """One distinct selection per token, including empty and all-expert ones."""
    mask = np.zeros((t, n), dtype=bool)
    mask[1] = True
    mask[2:t - 1] = random_mask(Rng(seed), t - 3, n)
    return mask


class TestExpertMajorDispatch:
    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
    def test_model_shape_matches_dense_mask_oracle(self, kind, dtype, tol):
        params, packed = model_shape_layer(kind, dtype)
        mask = distinct_masks()
        assert len({m.tobytes() for m in mask}) == len(mask) - 1  # only the two empties repeat
        x = Rng(22).normal((len(mask), 128), std=1.0, dtype=dtype)
        y = sparse_ffn_forward(packed, mask, x)
        assert y.dtype == dtype
        for t, row in enumerate(mask):
            ref = expert_oracle(params, x[t:t + 1], row, packed.expert_size)
            assert np.abs(y[t] - ref[0]).max() < tol, t

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_repeat_calls_bitwise_identical(self, kind):
        _, packed = model_shape_layer(kind, np.float32)
        mask = distinct_masks()
        x = Rng(23).normal((len(mask), 128), std=1.0)
        first = sparse_ffn_forward(packed, mask, x)
        assert first.tobytes() == sparse_ffn_forward(packed, mask, x).tobytes()


def union_run_oracle(packed, mask, x):
    """The union-run kernel in plain numpy, one run at a time in ascending
    order: runs of adjacent experts any row selected (single experts for one
    row), each run's hidden block masked to the pairs its rows selected."""
    x = np.ascontiguousarray(x)
    n_tok, d, es = x.shape[0], packed.d_model, packed.expert_size
    union, runs, e = mask.any(axis=0), [], 0
    while e < packed.n_experts:
        if not union[e]:
            e += 1
            continue
        b = e + 1
        while n_tok > 1 and b < packed.n_experts and union[b]:
            b += 1
        runs.append((e, b))
        e = b
    out = np.zeros((n_tok, d), dtype=x.dtype)
    for a, b in runs:
        up = x @ packed.up[a:b].reshape(-1, d).T
        if packed.gate is None:
            h = activation(up + packed.b1[a:b].reshape(-1), packed.activation)
        else:
            h = activation(x @ packed.gate[a:b].reshape(-1, d).T, packed.activation) * up
        h = np.where(np.repeat(mask[:, a:b], es, axis=1), h, 0)
        out += h @ packed.down[a:b].reshape(-1, d)
    if packed.b2 is not None:
        out += packed.b2
    return out


def seeded_mask(n_tok, variant, n=32, seed=30):
    """~40%-dense selection mask; `columns` forces expert 0 on for every token
    and expert 5 off, `rows` alternates tokens that chose none and all."""
    mask = Rng(seed + n_tok).normal((n_tok, n), std=1.0) > 0.25
    if variant == "columns":
        mask[:, 0] = True
        mask[:, 5] = False
    elif variant == "rows":
        mask[0::4] = False
        mask[1::4] = True
    return mask


class TestKernelByteIdentity:
    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_tok", [0, 1, 40, 2048])
    @pytest.mark.parametrize("variant", ["random", "columns", "rows"])
    def test_matches_union_run_oracle_bitwise(self, kind, dtype, n_tok, variant):
        _, packed = model_shape_layer(kind, dtype)
        mask = seeded_mask(n_tok, variant)
        x = Rng(31).normal((n_tok, 128), std=1.0, dtype=dtype)
        y = sparse_ffn_forward(packed, mask, x)
        ref = union_run_oracle(packed, mask, x)
        assert y.dtype == ref.dtype == dtype
        assert y.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    @pytest.mark.parametrize("n_tok", [1, 40])
    def test_strided_input_matches_union_run_oracle_bitwise(self, kind, n_tok):
        _, packed = model_shape_layer(kind, np.float32)
        mask = seeded_mask(n_tok, "columns")
        x = Rng(33).normal((n_tok, 256), std=1.0)[:, ::2]
        y = sparse_ffn_forward(packed, mask, x)
        assert y.tobytes() == union_run_oracle(packed, mask, x).tobytes()

    def test_masks_cover_the_edge_cases(self):
        cols, rows = seeded_mask(40, "columns"), seeded_mask(40, "rows")
        assert cols[:, 0].all() and not cols[:, 5].any()
        assert not rows[0].any() and rows[1].all()
        assert 0 < cols.mean() < 1 and 0 < rows.mean() < 1

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_one_activation_call_per_forward(self, kind, monkeypatch):
        _, packed = model_shape_layer(kind, np.float32)
        calls = []

        def counting(h, act):
            calls.append(h.shape)
            return activation(h, act)

        monkeypatch.setattr(numerics, "activation", counting)
        mask = seeded_mask(40, "columns")
        sparse_ffn_forward(packed, mask, Rng(32).normal((40, 128), std=1.0))
        # one call over every row and every expert some row selected
        assert calls == [(40, int(mask.any(axis=0).sum()) * packed.expert_size)]


class TestUnionRuns:
    def test_planner_merges_adjacent_experts_for_many_rows(self):
        union = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        assert _expert_runs(union, 2) == [(0, 2), (3, 4), (6, 9)]
        assert _expert_runs(np.ones(5, dtype=bool), 40) == [(0, 5)]
        assert _expert_runs(np.zeros(5, dtype=bool), 40) == []

    def test_planner_keeps_single_experts_for_one_row(self):
        union = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        assert _expert_runs(union, 1) == [(0, 1), (1, 2), (3, 4), (6, 7), (7, 8), (8, 9)]

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_nan_slab_reaches_only_tokens_that_selected_it(self, kind):
        # expert 2 sits inside a merged run [1, 4), so every row computes its slab
        _, packed = packed_layer(Rng(40), kind=kind)
        x = Rng(41).normal((4, 8), std=1.0)
        mask = np.zeros((4, 6), dtype=bool)
        for t, sel in enumerate(([1, 2, 3], [1, 3], [2], [3])):
            mask[t, sel] = True
        clean = sparse_ffn_forward(packed, mask, x)
        packed.up[2] = np.nan
        if kind == "swiglu":
            packed.gate[2] = np.nan
        else:
            packed.b1[2] = np.nan
        y = sparse_ffn_forward(packed, mask, x)
        chose = mask[:, 2]
        assert np.isnan(y[chose]).all()
        assert y[~chose].tobytes() == clean[~chose].tobytes()


def graph_mask(n_tok=9, n=6, seed=52):
    """Mixed (T, n) selections with a row that selects nothing and an expert
    (4) that no row selects, so the union splits into runs [0, 4) and [5, 6)."""
    mask = Rng(seed).normal((n_tok, n)) > 0
    mask[3] = False
    mask[:, 4] = False
    mask[0, 5] = True
    assert 0 < mask.mean() < 1 and mask[:, :4].any(axis=0).all()
    return mask


def through_graph(ffn, kind, mask, poison=None, d=8, f=24):
    """Run `ffn(params, 0, x, mask)` on a float64 one-block FFN and backpropagate
    a fixed output gradient; returns the output, dx and each role's gradient.
    `poison` sets one expert's up (or gate) columns to NaN first."""
    params = random_block(Rng(50), kind, d, f, std=0.3, bias_std=0.2, dtype=np.float64,
                          expert_size=f // mask.shape[1])
    es = params.config.expert_size
    if poison is not None:
        role = "gate" if kind == "swiglu" else "up"
        params[ffn_param_names(params.config, 0)[role]].data[:, poison * es:(poison + 1) * es] = np.nan
    x = param(Rng(51).normal((mask.shape[0], d), dtype=np.float64))
    out = ffn(params, 0, x, mask)
    (out * Tensor(Rng(53).normal(out.shape, dtype=np.float64))).sum().backward()
    names = ffn_param_names(params.config, 0)
    return out.data, x.grad, {role: params[name].grad for role, name in names.items()}


class TestSparseFfnGraph:
    """The discrete FFN's graph op: the union kernel forward, and a backward
    over the union's columns with unselected pairs zeroed."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_masked_dense_oracle(self, kind):
        mask = graph_mask()
        out, dx, grads = through_graph(sparse_ffn_graph, kind, mask)
        ref_out, ref_dx, ref_grads = through_graph(masked_dense_ffn, kind, mask)
        assert np.abs(out - ref_out).max() < 1e-10
        assert np.abs(dx - ref_dx).max() < 1e-10
        assert grads.keys() == ref_grads.keys()
        for role, g in grads.items():
            assert g.shape == ref_grads[role].shape, role
            assert np.abs(g - ref_grads[role]).max() < 1e-10, role

    @pytest.mark.parametrize("kind", KINDS)
    def test_unselected_expert_and_empty_row_get_exact_zeros(self, kind):
        mask = graph_mask()
        out, dx, grads = through_graph(sparse_ffn_graph, kind, mask)
        cols = slice(4 * 4, 5 * 4)  # expert 4, expert_size 4
        for role in ("up", "gate"):
            if role in grads:
                assert not grads[role][:, cols].any(), role
                assert grads[role][:, :cols.start].any(), role
        assert not grads["down"][cols].any()
        if "b1" in grads:
            assert not grads["b1"][cols].any()
        assert not dx[3].any()  # row 3 selects nothing
        assert dx[0].any()

    @pytest.mark.parametrize("kind", KINDS)
    def test_expert_outside_the_union_is_never_read(self, kind):
        mask = graph_mask()
        clean = through_graph(sparse_ffn_graph, kind, mask)
        poisoned = through_graph(sparse_ffn_graph, kind, mask, poison=4)
        assert clean[0].tobytes() == poisoned[0].tobytes()
        assert clean[1].tobytes() == poisoned[1].tobytes()
        for role, g in clean[2].items():
            assert g.tobytes() == poisoned[2][role].tobytes(), role

    def test_neither_traced_kernel_nor_blocked_matmul(self, monkeypatch):
        # a traced run counts sparse_ffn_forward's rows as gathered eval rows,
        # and numerics.matmul's calls as the K-blocked products
        def refuse(*args, **kwargs):
            raise AssertionError("called by the graph op")
        monkeypatch.setattr(sparse_exec, "sparse_ffn_forward", refuse)
        monkeypatch.setattr(numerics, "matmul", refuse)
        out, dx, _ = through_graph(sparse_ffn_graph, "two_matmul", graph_mask())
        assert np.isfinite(out).all() and np.isfinite(dx).all()

    @pytest.mark.parametrize("mask_shape,dtype,x_shape,message", [
        ((9, 4), bool, (9, 8), "mask of shape"),
        ((8, 6), bool, (9, 8), "mask of shape"),
        ((9, 6), np.int64, (9, 8), "mask of shape"),
        ((9, 6), bool, (9, 7), "x of shape"),
        ((9, 6), bool, (9,), "x of shape"),
    ], ids=["few_experts", "few_rows", "int_mask", "x_width", "x_1d"])
    @pytest.mark.parametrize("entry", ["forward", "graph"])
    def test_mask_shape_and_dtype_checked(self, entry, mask_shape, dtype, x_shape, message):
        # both entries reach the one input check in _union_ffn
        params, packed = packed_layer(Rng(54))  # d_model 8, 6 experts
        mask, x = np.ones(mask_shape, dtype=dtype), Rng(55).normal(x_shape)
        with pytest.raises(numerics.ShapeError, match=message):
            if entry == "forward":
                sparse_ffn_forward(packed, mask, x)
            else:
                sparse_ffn_graph(params, 0, param(x), mask)


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
