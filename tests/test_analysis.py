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
    render_histogram_svg,
    render_sparsity_svg,
    score_concentration,
    union_sparsity,
    val_windows,
)
from moefy.autograd import no_grad, param
from moefy.losses import task_loss
from moefy.checkpoint import CheckpointBundle
from moefy.grouping import apply_partition, group_experts_random
from moefy.model import ModelConfig, forward_lm, init_params
from moefy.numerics import Rng
from moefy.routing import RouterLayer, magnitude_select, router_init
from moefy.sparse_exec import flops_per_token

from oracles import near_tau_fraction, prefix_union_sparsity

from ffn_blocks import packed_layers

logit = lambda p: math.log(p / (1 - p))


def build_bundle(seed=0, score_bias=None):
    cfg = ModelConfig(vocab_size=256, d_model=8, n_heads=2, n_layers=2, d_ffn=8,
                      max_seq_len=16, expert_size=2).validate()
    params = init_params(cfg, Rng(seed))
    partitions, routers = [], []
    for i in range(cfg.n_layers):
        p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(seed).split(f"g{i}"))
        apply_partition(params, i, p)
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

    def test_chunked_eval_matches_per_window(self):
        # 40 windows run as two forward_lm chunks (32 + 8); float64 reference per window
        bundle = build_bundle(seed=22)
        bundle.params = bundle.params.astype(np.float64)
        for r in bundle.routers:
            r.Wg = param(r.Wg.data.astype(np.float64))
        wins = windows_from(23, n=40)
        assert len(wins) > analysis.EVAL_CHUNK
        ce, scores, masks = collect_decisions(bundle, wins, tau=0.5)
        with no_grad():
            packed = packed_layers(bundle.params, bundle.partitions)
            runs = [forward_lm(bundle.params, w[:-1], "moe_discrete", routers=bundle.routers,
                               tau=0.5, partitions=bundle.partitions, packed=packed) for w in wins]
        ref_ce = np.mean([task_loss(r.logits.data, w[1:]) for r, w in zip(runs, wins)])
        assert abs(ce - ref_ce) < 1e-12
        for l in range(bundle.config.n_layers):
            ref_mask = np.concatenate([r.decisions[l].mask for r in runs])
            assert np.array_equal(masks[l], ref_mask)
            assert 0 < ref_mask.mean() < 1
        assert abs(evaluate(bundle, wins, "lte").mean_ce - ref_ce) < 1e-12
        dejavu = lambda i, x, a: magnitude_select(a, 0.5)
        for method, scale in (("dense", None), ("dejavu", dejavu)):
            with no_grad():
                ref = np.mean([task_loss(forward_lm(bundle.params, w[:-1],
                                                    ffn_scale=scale).logits.data, w[1:])
                               for w in wins])
            got = evaluate(bundle, wins, method, keep_fraction=0.5).mean_ce
            assert abs(got - ref) < 1e-12

    def test_val_windows_deterministic_and_bounded(self):
        data = np.arange(1000, dtype=np.uint8)
        w = val_windows(data, 64, 4)
        assert len(w) == 4
        assert np.array_equal(w[0], data[:65].astype(np.int64))
        with pytest.raises(ValueError):
            val_windows(np.arange(3, dtype=np.uint8), 64, 2)

    @pytest.mark.parametrize("n_bytes,n_windows", [(64, 0), (65, 1), (128, 1), (129, 2)])
    def test_val_windows_keeps_a_window_ending_at_the_slice_end(self, n_bytes, n_windows):
        # a window is seq_len inputs plus one target: 65 bytes for seq_len 64
        data = np.arange(n_bytes, dtype=np.uint8)
        if n_windows == 0:
            with pytest.raises(ValueError):
                val_windows(data, 64, 8)
            return
        w = val_windows(data, 64, 8)
        assert len(w) == n_windows
        last = 64 * (n_windows - 1)
        assert np.array_equal(w[-1], data[last:last + 65].astype(np.int64))


class TestEvalFromAppliedMasks:
    """Every method's sparsity and FLOPs are measured from the masks its forward pass applied."""

    @staticmethod
    def spied_evaluate(monkeypatch, bundle, wins, method, **kw):
        calls = []
        real = analysis.forward_lm

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((kwargs, res.decisions))
            return res

        monkeypatch.setattr(analysis, "forward_lm", spy)
        return analysis.evaluate(bundle, wins, method, **kw), calls

    @pytest.mark.parametrize("method", analysis.EVAL_METHODS)
    def test_sparsity_and_flops_match_applied_masks(self, monkeypatch, method):
        bundle = build_bundle(seed=24)
        cfg = bundle.config
        wins = windows_from(25, n=3)
        m, calls = self.spied_evaluate(monkeypatch, bundle, wins, method, tau=0.5, k=2,
                                       keep_fraction=0.3)
        assert len(calls) == 1  # one chunk
        kwargs, decisions = calls[0]
        if method == "dense":
            assert decisions is None and kwargs.get("ffn_scale") is None
            masks = [np.ones((1, cfg.n_experts), dtype=bool)] * cfg.n_layers
        else:
            if method != "lte":
                assert kwargs["ffn_scale"] is not None
            assert len(decisions) == cfg.n_layers
            masks = [d.mask for d in decisions]
        assert m.mean_sparsity == float(np.mean([1.0 - mk.mean() for mk in masks]))
        expert_size = {cfg.n_experts: 1, cfg.d_ffn: cfg.expert_size}
        selected = [float(mk.sum(axis=1).mean()) / expert_size[mk.shape[1]] for mk in masks]
        expect = flops_per_token(cfg, selected, router=method in analysis.ROUTED)
        assert m.flops == expect

    def test_dejavu_reports_the_fraction_it_kept(self):
        # d_ffn 8 at keep_fraction 0.3 keeps ceil(2.4) = 3 neurons per token
        bundle = build_bundle(seed=26)
        cfg = bundle.config
        m = evaluate(bundle, windows_from(27), "dejavu", keep_fraction=0.3)
        assert m.mean_sparsity == 1.0 - 3 / 8
        per_neuron = flops_per_token(cfg, [3 / cfg.expert_size] * cfg.n_layers, router=False)
        assert m.flops.sparse_flops_per_token == per_neuron.sparse_flops_per_token
        assert m.flops.sparse_flops_per_token == m.flops.dense_flops_per_token * 3 / 8
        assert m.flops.router_flops_per_token == 0.0
