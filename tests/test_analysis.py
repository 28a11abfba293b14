import math

import numpy as np
import pytest

from moefy import analysis
from moefy.analysis import (
    SparsityReport,
    collect_decisions,
    evaluate,
    eval_record_line,
    format_report,
    layer_sparsity_report,
    near_tau_fraction,
    prefix_union_sparsity,
    render_histogram_svg,
    render_sparsity_svg,
    score_concentration,
    union_sparsity,
    val_windows,
)
from moefy.autograd import param
from moefy.checkpoint import CheckpointBundle
from moefy.grouping import apply_partition, group_experts_random
from moefy.model import ModelConfig, get_ffn_layer, init_params, set_ffn_layer
from moefy.numerics import Rng
from moefy.routing import RouterLayer, router_init

logit = lambda p: math.log(p / (1 - p))


def build_bundle(seed=0, score_bias=None):
    cfg = ModelConfig(vocab_size=256, d_model=8, n_heads=2, n_layers=2, d_ffn=8,
                      max_seq_len=16, expert_size=2).validate()
    params = init_params(cfg, Rng(seed))
    partitions, routers = [], []
    for i in range(cfg.n_layers):
        p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(seed).split(f"g{i}"))
        set_ffn_layer(params, i, apply_partition(get_ffn_layer(params, i), p))
        partitions.append(p)
        if score_bias is None:
            routers.append(router_init(cfg.d_model, cfg.n_experts, Rng(seed).split(f"r{i}"),
                                       std=1.0))
        else:
            # router input is ln2's output: zero gain and unit bias make it all ones,
            # so Wg columns of logit/d_model give each expert the logit score_bias[j]
            params[f"block{i}.ln2.g"].data[:] = 0.0
            params[f"block{i}.ln2.b"].data[:] = 1.0
            wg = np.tile(np.asarray(score_bias, dtype=np.float32) / cfg.d_model,
                         (cfg.d_model, 1))
            routers.append(RouterLayer(Wg=param(wg)))
    return CheckpointBundle(config=cfg, params=params, partitions=partitions,
                            routers=routers, stage="stage2")


def windows_from(seed=1, n=4, t=9):
    rng = Rng(seed)
    return [rng.integers(0, 256, size=t + 1).astype(np.int64) for _ in range(n)]


class TestUnionSparsity:
    def test_set_union_example(self):
        mask = np.zeros((2, 8), dtype=bool)
        mask[0, [1, 2]] = True
        mask[1, [2, 3]] = True
        assert union_sparsity(mask) == 1 - 3 / 8

    def test_single_token_equals_own_sparsity(self):
        mask = np.zeros((1, 8), dtype=bool)
        mask[0, [0, 5]] = True
        assert union_sparsity(mask) == 1 - 2 / 8

    def test_prefix_monotone_non_increasing(self):
        rng = Rng(2)
        mask = rng.normal((64, 16), std=1.0) > 0.4
        series = prefix_union_sparsity(mask)
        assert (np.diff(series) <= 1e-12).all()
        assert abs(series[-1] - union_sparsity(mask)) < 1e-12

    def test_union_le_min_per_token(self):
        rng = Rng(3)
        mask = rng.normal((32, 12), std=1.0) > 0.3
        per_token = 1 - mask.mean(axis=1)
        assert union_sparsity(mask) <= per_token.min() + 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            union_sparsity(np.zeros((0, 4), dtype=bool))


class TestConcentration:
    def test_uniform_softmax(self):
        n = 8
        scores = np.full((100, n), 1.0 / n)
        mx, ent = score_concentration(scores)
        assert abs(mx - 1 / n) < 1e-12
        assert abs(ent - math.log(n)) < 1e-12

    def test_one_hot(self):
        scores = np.zeros((10, 4))
        scores[:, 2] = 1.0
        mx, ent = score_concentration(scores)
        assert mx == 1.0 and ent == 0.0

    def test_recount_stability(self):
        scores = Rng(4).normal((50, 6), std=0.2) + 0.5
        a = score_concentration(scores)
        b = score_concentration(scores.copy())
        assert abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9


class TestReports:
    def test_forced_high_scores_zero_sparsity(self):
        bundle = build_bundle(score_bias=[logit(0.9)] * 4)
        rep = layer_sparsity_report(bundle, windows_from(), tau=0.5)
        assert rep.per_layer_sparsity == [0.0, 0.0]
        assert rep.overall_sparsity == 0.0

    def test_half_below_half_above(self):
        bias = [logit(0.4), logit(0.4), logit(0.6), logit(0.6)]
        bundle = build_bundle(score_bias=bias)
        rep = layer_sparsity_report(bundle, windows_from(), tau=0.5)
        assert rep.per_layer_sparsity == [0.5, 0.5]

    def test_report_matches_brute_recount(self):
        bundle = build_bundle(seed=5)
        wins = windows_from(6)
        rep = layer_sparsity_report(bundle, wins, tau=0.5)
        _, scores, masks = collect_decisions(bundle, wins, tau=0.5)
        for l, m in enumerate(masks):
            manual = np.mean([1 - m[t].sum() / m.shape[1] for t in range(m.shape[0])])
            assert abs(rep.per_layer_sparsity[l] - manual) < 1e-12
        assert rep.histograms.sum() == sum(s.size for s in scores)

    def test_report_serialization_deterministic(self):
        bundle = build_bundle(seed=7)
        wins = windows_from(8)
        a = format_report(layer_sparsity_report(bundle, wins, tau=0.5, corpus_hash="ff"))
        b = format_report(layer_sparsity_report(bundle, wins, tau=0.5, corpus_hash="ff"))
        assert a == b
        assert a.startswith("tau\t0.5")

    def test_svg_render(self):
        bundle = build_bundle(seed=8)
        rep = layer_sparsity_report(bundle, windows_from(9), tau=0.5)
        svg1 = render_sparsity_svg(rep)
        svg2 = render_histogram_svg(rep)
        assert svg1.startswith("<svg") and svg1.endswith("</svg>")
        assert 'rect' in svg2

    def test_near_tau_fraction(self):
        scores = np.array([[0.45, 0.55, 0.05, 0.95]])
        assert near_tau_fraction(scores, 0.5) == 0.5


class TestEvaluate:
    def test_all_methods_run(self):
        bundle = build_bundle(seed=10)
        wins = windows_from(11)
        for method in analysis.EVAL_METHODS:
            m = evaluate(bundle, wins, method, tau=0.5, k=2, keep_fraction=0.5)
            assert np.isfinite(m.ppl) and m.ppl > 1.0
            assert 0.0 <= m.mean_sparsity <= 1.0

    def test_dejavu_keep_all_equals_dense(self):
        bundle = build_bundle(seed=12)
        wins = windows_from(13)
        dense = evaluate(bundle, wins, "dense")
        dv = evaluate(bundle, wins, "dejavu", keep_fraction=1.0)
        assert abs(dense.ppl - dv.ppl) / dense.ppl < 1e-5

    def test_gt_full_k_equals_dense(self):
        bundle = build_bundle(seed=14)
        wins = windows_from(15)
        dense = evaluate(bundle, wins, "dense")
        gt = evaluate(bundle, wins, "moefication_gt", k=bundle.config.n_experts)
        assert abs(dense.ppl - gt.ppl) / dense.ppl < 1e-5

    def test_lte_eval_repeatable_record(self):
        bundle = build_bundle(seed=16)
        wins = windows_from(17)
        m1 = evaluate(bundle, wins, "lte", tau=0.5)
        m2 = evaluate(bundle, wins, "lte", tau=0.5)
        l1 = eval_record_line(m1, "habc", "ckpt:stage2")
        l2 = eval_record_line(m2, "habc", "ckpt:stage2")
        assert l1 == l2 and l1.count("\t") == 11

    def test_lte_needs_routers(self):
        bundle = build_bundle(seed=18)
        bundle.routers = None
        with pytest.raises(ValueError):
            evaluate(bundle, windows_from(19), "lte")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            evaluate(build_bundle(seed=20), windows_from(21), "magic")

    def test_val_windows_deterministic_and_bounded(self):
        data = np.arange(1000, dtype=np.uint8)
        w = val_windows(data, 64, 4)
        assert len(w) == 4
        assert np.array_equal(w[0], data[:65].astype(np.int64))
        with pytest.raises(ValueError):
            val_windows(np.arange(3, dtype=np.uint8), 64, 2)
