import math

import numpy as np
import pytest

from moefy import routing
from moefy.autograd import Tensor, no_grad, param
from moefy.grouping import apply_partition, group_experts_random
from moefy.model import ffn_hidden, ffn_out, get_ffn_layer
from moefy.numerics import Rng, activation
from moefy.routing import (
    RouterLayer,
    discrete_ffn_graph,
    groundtruth_topk_select,
    magnitude_select,
    moe_forward_discrete,
    noisy_topk_select,
    random_topk_select,
    router_init,
    router_scores,
    soft_ffn_graph,
)
from moefy.sparse_exec import pack

from ffn_blocks import ffn_weights, one_block, random_block, scaled_ffn_oracle

logit = lambda p: math.log(p / (1 - p))


def make_layer(rng, d=6, f=16, kind="two_matmul", act="gelu_tanh", n_experts=4):
    """(one-block params with an expert-permuted random FFN, its partition)."""
    params = random_block(rng, kind, d, f, std=0.8, bias_std=0.5, activation=act,
                          expert_size=f // n_experts)
    p = group_experts_random(f, n_experts, rng.split("part"))
    apply_partition(params, 0, p)
    return params, p


def discrete(params, part, router, x, tau):
    return moe_forward_discrete(pack(get_ffn_layer(params, 0, part)), part, router, x, tau)


def soft(params, router, x):
    with no_grad():
        out, _, dec = soft_ffn_graph(params, 0, router, Tensor(x))
    return out.data, dec


def dense_mask_oracle(params, x, neuron_scale):
    """Plain-numpy dense FFN of block 0 with each intermediate neuron scaled."""
    return scaled_ffn_oracle(params, x, neuron_scale)


def hidden(params, x):
    """Block 0's FFN hidden layer, what the hidden-ranking baselines rank."""
    with no_grad():
        return ffn_hidden(params, 0, Tensor(x)).data


def scaled_out(params, x, scale):
    """Block 0's FFN under a baseline's scale, as forward_lm applies it."""
    with no_grad():
        a = ffn_hidden(params, 0, Tensor(x))
        return ffn_out(params, 0, a, Tensor(scale.astype(a.dtype))).data


class TestRouterScores:
    def test_zero_weights_give_half(self):
        r = RouterLayer(Wg=param(np.zeros((4, 3), dtype=np.float32)))
        s = router_scores(r, Rng(0).normal((5, 4), std=1.0))
        assert np.allclose(s, 0.5)

    def test_logit_ln3_gives_three_quarters(self):
        r = RouterLayer(Wg=param(np.array([[math.log(3.0)]], dtype=np.float64)))
        s = router_scores(r, np.array([[1.0]]))
        assert abs(s[0, 0] - 0.75) < 1e-12

    def test_column_permutation_equivariance(self):
        rng = Rng(1)
        wg = rng.normal((6, 5), std=1.0)
        x = rng.normal((4, 6), std=1.0)
        perm = np.array([3, 0, 4, 1, 2])
        s = router_scores(RouterLayer(Wg=param(wg)), x)
        sp = router_scores(RouterLayer(Wg=param(wg[:, perm])), x)
        assert np.allclose(s[:, perm], sp)

    def test_scores_strictly_in_unit_interval(self):
        r = router_init(8, 6, Rng(2))
        s = router_scores(r, Rng(3).normal((64, 8), std=1.0))
        assert (s > 0).all() and (s < 1).all()


class TestDiscrete:
    def test_threshold_selection(self):
        params, part = make_layer(Rng(4), d=1, f=12, n_experts=3)
        wg = np.array([[logit(0.7), logit(0.4), logit(0.6)]])
        r = RouterLayer(Wg=param(wg))
        _, dec = discrete(params, part, r, np.array([[1.0]]), tau=0.5)
        assert dec.mask.tolist() == [[True, False, True]]

    def test_empty_selection_gives_shared_bias(self):
        params, part = make_layer(Rng(5), d=3, f=8, n_experts=2)
        # positive inputs through a strongly negative router: every score ~0
        r = RouterLayer(Wg=param(np.full((3, 2), -50.0, dtype=np.float32)))
        x = np.abs(Rng(6).normal((4, 3), std=0.1)) + 0.1
        y, dec = discrete(params, part, r, x, tau=0.5)
        assert not dec.mask.any()
        assert np.allclose(y, np.tile(params["block0.ffn.b2"].data, (4, 1)))

    def test_empty_selection_swiglu_gives_zero(self):
        params, part = make_layer(Rng(7), d=3, f=8, kind="swiglu", n_experts=2)
        r = RouterLayer(Wg=param(np.full((3, 2), -50.0, dtype=np.float32)))
        x = np.abs(Rng(8).normal((2, 3), std=1.0)) + 0.1
        y, dec = discrete(params, part, r, x, tau=0.5)
        assert not dec.mask.any()
        assert np.allclose(y, 0.0)

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_matches_dense_mask_oracle(self, kind):
        rng = Rng(9)
        params, part = make_layer(rng, kind=kind)
        r = router_init(6, 4, rng.split("router"), std=2.0)
        x = rng.normal((8, 6), std=1.0)
        y, dec = discrete(params, part, r, x, tau=0.5)
        scale = np.repeat(dec.mask, part.expert_size, axis=1).astype(x.dtype)
        assert np.abs(y - dense_mask_oracle(params, x, scale)).max() < 1e-5

    def test_strict_inequality_at_tau(self):
        params, part = make_layer(Rng(10), d=1, f=12, n_experts=3)
        r = RouterLayer(Wg=param(np.zeros((1, 3), dtype=np.float64)))  # scores exactly 0.5
        _, dec = discrete(params, part, r, np.array([[1.0]]), tau=0.5)
        assert not dec.mask.any()

    def test_mask_depends_only_on_own_token(self):
        rng = Rng(11)
        params, part = make_layer(rng)
        r = router_init(6, 4, rng.split("r"), std=1.5)
        x = rng.normal((5, 6), std=1.0)
        dup = np.vstack([x, x[2:3]])
        _, d1 = discrete(params, part, r, x, tau=0.5)
        _, d2 = discrete(params, part, r, dup, tau=0.5)
        assert np.array_equal(d1.mask[2], d2.mask[-1])

    @pytest.mark.parametrize("tau", [0.0, 1.0, 1.5])
    def test_both_paths_reject_tau_outside_open_unit_interval(self, tau):
        rng = Rng(16)
        params, part = make_layer(rng)
        r = router_init(6, 4, rng.split("r"))
        x = rng.normal((3, 6), std=1.0)
        with no_grad(), pytest.raises(ValueError, match="tau must be in"):
            discrete(params, part, r, x, tau)
        with pytest.raises(ValueError, match="tau must be in"):
            discrete_ffn_graph(params, 0, r, param(x), tau)

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    @pytest.mark.parametrize("rows", [[0], [1], list(range(9))])
    def test_no_grad_mask_goes_straight_to_union_kernel(self, monkeypatch, kind, rows):
        # the router's mask is the kernel's input, and the serving path leaves
        # sparse_ffn_forward, whose arguments perfbench's trace reads, uncalled
        rng = Rng(12)
        params, part = make_layer(rng, kind=kind, n_experts=4)
        wg = rng.split("g").normal((6, 4), std=2.0)
        wg[:, 1] = -50.0  # positive inputs never select expert 1
        r = RouterLayer(Wg=param(wg))
        x = np.abs(rng.normal((9, 6), std=1.0)) + 0.1
        x[0] = 0.0  # every score exactly tau: row 0 selects nothing
        x = x[rows]
        packed = pack(get_ffn_layer(params, 0, part))

        def fail(*args):
            raise AssertionError("traced bench entry called")

        monkeypatch.setattr(routing.sparse_exec, "sparse_ffn_forward", fail)
        with no_grad():
            y, dec = moe_forward_discrete(packed, part, r, x, tau=0.5)
        monkeypatch.undo()
        assert dec.mask[0].any() == (rows[0] != 0)
        if len(rows) > 1:  # a union of two runs around the unselected expert
            assert dec.mask.any(axis=0).tolist() == [True, False, True, True]
            assert 0 < dec.mask.mean() < 1
        ref = routing.sparse_exec.sparse_ffn_forward(packed, dec.mask, x)
        assert y.dtype == ref.dtype and y.tobytes() == ref.tobytes()


class TestSoft:
    def test_scores_one_equals_dense(self):
        rng = Rng(12)
        params, part = make_layer(rng)
        # positive inputs through a strongly positive router: every score 1
        r = RouterLayer(Wg=param(np.full((6, 4), 40.0, dtype=np.float32)))
        x = np.abs(rng.normal((5, 6), std=1.0)) + 0.1
        y, dec = soft(params, r, x)
        dense = dense_mask_oracle(params, x, np.ones(16, dtype=np.float32))
        assert np.abs(y - dense).max() < 1e-5
        assert dec.mask.all()

    def test_scores_zero_gives_shared_bias(self):
        rng = Rng(13)
        params, part = make_layer(rng)
        r = RouterLayer(Wg=param(np.full((6, 4), -40.0, dtype=np.float32)))
        y, _ = soft(params, r, np.abs(rng.normal((3, 6), std=1.0)) + 0.1)
        assert np.allclose(y, np.tile(params["block0.ffn.b2"].data, (3, 1)), atol=1e-6)

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_matches_scaled_dense_oracle(self, kind):
        rng = Rng(14)
        params, part = make_layer(rng, kind=kind)
        r = router_init(6, 4, rng.split("router"), std=1.0)
        x = rng.normal((7, 6), std=1.0)
        y, dec = soft(params, r, x)
        scale = np.repeat(dec.scores, part.expert_size, axis=1).astype(x.dtype)
        assert np.abs(y - dense_mask_oracle(params, x, scale)).max() < 1e-5

    def test_binarized_soft_equals_discrete(self):
        # scores away from tau: discrete output == dense scaled by the 0/1 mask
        rng = Rng(15)
        params, part = make_layer(rng)
        r = router_init(6, 4, rng.split("router"), std=3.0)
        x = rng.normal((6, 6), std=1.0)
        y, dec = discrete(params, part, r, x, tau=0.5)
        binarized = dec.mask.astype(x.dtype)
        oracle = dense_mask_oracle(params, x, np.repeat(binarized, part.expert_size, axis=1))
        assert np.abs(y - oracle).max() < 1e-5


class TestNoisyTopk:
    def test_hand_softmax_logits_210(self):
        r = RouterLayer(Wg=param(np.array([[2.0, 1.0, 0.0]])))
        scale, dec = noisy_topk_select(r, np.array([[1.0]]), k=2)
        e = math.e
        assert np.allclose(scale[0], [e / (e + 1), 1 / (e + 1), 0.0], atol=1e-12)
        assert np.array_equal(dec.scores, scale)
        assert dec.mask.tolist() == [[True, True, False]]

    def test_k_equals_n_is_full_softmax(self):
        rng = Rng(17)
        r = router_init(6, 4, rng.split("r"), std=1.0)
        x = rng.normal((5, 6), std=1.0)
        _, dec = noisy_topk_select(r, x, k=4)
        logits = x @ r.Wg.data
        full = np.exp(logits - logits.max(1, keepdims=True))
        full /= full.sum(1, keepdims=True)
        assert np.allclose(dec.scores, full, atol=1e-6)

    def test_k1_single_expert_weight_one(self):
        rng = Rng(18)
        r = router_init(6, 4, rng.split("r"), std=1.0)
        _, dec = noisy_topk_select(r, rng.normal((6, 6), std=1.0), k=1)
        assert np.allclose(dec.scores.max(axis=1), 1.0)
        assert (dec.mask.sum(axis=1) == 1).all()

    def test_rows_sum_to_one(self):
        rng = Rng(19)
        r = router_init(6, 4, rng.split("r"), std=1.0)
        _, dec = noisy_topk_select(r, rng.normal((9, 6), std=1.0), k=2)
        assert np.abs(dec.scores.sum(axis=1) - 1.0).max() < 1e-6

    def test_k_out_of_range(self):
        r = router_init(6, 4, Rng(22))
        with pytest.raises(ValueError):
            noisy_topk_select(r, np.zeros((1, 6), np.float32), k=5)


class TestMagnitudeSelect:
    def test_example_ranking(self):
        # swiglu intermediate ~ [3, -5, 0.1]: |-5| > |3| > |0.1|
        params = one_block(
            "swiglu",
            np.full((1, 3), 20.0),               # gate: silu(20) ~= 20
            np.array([[0.15, -0.25, 0.005]]),    # up
            np.eye(3, 1),                        # down
            expert_size=1)
        _, dec = magnitude_select(hidden(params, np.array([[1.0]])), keep_fraction=2 / 3)
        assert dec.mask.tolist() == [[True, True, False]]

    def test_keep_all_is_dense(self):
        rng = Rng(23)
        params, _ = make_layer(rng)
        x = rng.normal((5, 6), std=1.0)
        scale, dec = magnitude_select(hidden(params, x), keep_fraction=1.0)
        y = scaled_out(params, x, scale)
        assert dec.mask.all()
        dense = dense_mask_oracle(params, x, np.ones(16, dtype=x.dtype))
        assert np.abs(y - dense).max() < 1e-6

    def test_beats_random_mask_on_average(self):
        rng = Rng(24)
        params, _ = make_layer(rng, act="relu")
        x = rng.normal((20, 6), std=1.0)
        dense = dense_mask_oracle(params, x, np.ones(16, dtype=x.dtype))
        scale, _ = magnitude_select(hidden(params, x), keep_fraction=0.5)
        y = dense_mask_oracle(params, x, scale.astype(x.dtype))
        mag_err = float(np.abs(y - dense).mean())
        rand_errs = []
        for s in range(20):
            srng = Rng(1000 + s)
            m = np.zeros((20, 16), dtype=x.dtype)
            for t in range(20):
                m[t, srng.choice(16, 8)] = 1.0
            rand_errs.append(float(np.abs(dense_mask_oracle(params, x, m) - dense).mean()))
        assert mag_err <= np.mean(rand_errs)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            magnitude_select(np.zeros((1, 16), np.float32), keep_fraction=0.0)


class TestGroundtruthTopk:
    def test_k_equals_n_dense(self):
        rng = Rng(26)
        params, part = make_layer(rng)
        x = rng.normal((4, 6), std=1.0)
        scale, dec = groundtruth_topk_select(hidden(params, x), 4, k=4)
        y = scaled_out(params, x, scale)
        dense = dense_mask_oracle(params, x, np.ones(16, dtype=x.dtype))
        assert dec.mask.all()
        assert np.abs(y - dense).max() < 1e-6

    def test_single_hot_expert_k1_exact(self):
        # only expert 0's neurons can fire (relu kills the rest via -inf-ish bias)
        d, f, n = 3, 8, 4
        rng = Rng(27)
        b1 = np.zeros(f, np.float32)
        b1[2:] = -1e9
        params = one_block("two_matmul", rng.normal((d, f), std=1.0), b1,
                           rng.normal((f, d), std=1.0), rng.normal((d,), std=1.0),
                           expert_size=f // n, activation="relu")
        x = np.abs(rng.normal((5, d), std=1.0))
        scale, dec = groundtruth_topk_select(hidden(params, x), n, k=1)
        y = scaled_out(params, x, scale)
        dense = dense_mask_oracle(params, x, np.ones(f, dtype=x.dtype))
        assert (dec.mask[:, 0]).all()
        assert np.abs(y - dense).max() < 1e-5

    def test_matches_bruteforce_norms(self):
        rng = Rng(28)
        params, part = make_layer(rng)
        x = rng.normal((6, 6), std=1.0)
        _, dec = groundtruth_topk_select(hidden(params, x), 4, k=2)
        w = ffn_weights(params)
        inter = activation(x @ w["up"] + w["b1"], params.config.activation)
        for t in range(6):
            norms = [np.linalg.norm(inter[t, e * 4:(e + 1) * 4]) for e in range(4)]
            top2 = set(np.argsort([-v for v in norms], kind="stable")[:2])
            assert set(np.flatnonzero(dec.mask[t])) == top2


def random_router(d, n, rng):
    """The random_router baseline's frozen router, as eval draws it."""
    return router_init(d, n, rng, std=1.0 / math.sqrt(d))


class TestRandomRouter:
    def test_deterministic_selection(self):
        rng = Rng(29)
        x = rng.normal((5, 6), std=1.0)
        _, d1 = random_topk_select(random_router(6, 4, Rng(77)), x, 2)
        _, d2 = random_topk_select(random_router(6, 4, Rng(77)), x, 2)
        assert np.array_equal(d1.mask, d2.mask)

    def test_k_equals_n_dense(self):
        rng = Rng(30)
        params, part = make_layer(rng)
        x = rng.normal((4, 6), std=1.0)
        scale, _ = random_topk_select(random_router(6, 4, Rng(1)), x, 4)
        y = scaled_out(params, x, scale)
        dense = dense_mask_oracle(params, x, np.ones(16, dtype=x.dtype))
        assert np.abs(y - dense).max() < 1e-6

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            random_topk_select(random_router(6, 4, Rng(32)), np.zeros((1, 6)), 5)

    def test_selection_frequency_near_uniform(self):
        # Expert marginals are uniform over router draws (column symmetry), so
        # Monte-Carlo over (router, tokens) pairs; sigma estimated across routers.
        d, n, k, n_routers, tokens = 16, 8, 2, 24, 500
        freqs = np.zeros((n_routers, n))
        for s in range(n_routers):
            x = Rng(500 + s).normal((tokens, d), std=1.0)
            scores = router_scores(random_router(d, n, Rng(9000 + s)), x)
            freqs[s] = routing._topk_rows(scores, k).mean(axis=0)
        mean = freqs.mean(axis=0)
        sem = freqs.std(axis=0, ddof=1) / math.sqrt(n_routers)
        assert np.abs(mean - k / n).max() <= (3 * sem).max() + 1e-9


BASELINES = {
    "dejavu": lambda x, a: magnitude_select(a, keep_fraction=0.3),
    "moefication_gt": lambda x, a: groundtruth_topk_select(a, 4, k=2),
    "random_router": lambda x, a: random_topk_select(random_router(6, 4, Rng(33)), x, 2),
    "noisy_topk": lambda x, a: noisy_topk_select(random_router(6, 4, Rng(33)), x, 2),
}


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_decision_is_the_applied_selection(name):
    # eval measures every method from its decision's mask, so the mask must be
    # exactly what scaled the FFN: 0/1, or softmax weights nonzero only on it
    rng = Rng(34)
    params, _ = make_layer(rng)
    x = rng.normal((7, 6), std=1.0)
    scale, dec = BASELINES[name](x, hidden(params, x))
    y = scaled_out(params, x, scale)
    assert dec.mask.dtype == bool and dec.mask.shape == dec.scores.shape
    assert dec.mask.shape == (7, 16 if name == "dejavu" else 4)
    assert np.array_equal(scale, dec.scores if name == "noisy_topk" else dec.mask)
    assert np.array_equal(scale != 0, dec.mask)
    cols = np.repeat(scale, 16 // scale.shape[1], axis=1)
    assert np.abs(y - dense_mask_oracle(params, x, cols)).max() < 1e-5
