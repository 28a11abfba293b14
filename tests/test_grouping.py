import numpy as np
import pytest

from moefy.grouping import (
    ExpertPartition,
    _greedy_balanced_assign,
    apply_partition,
    group_experts_kmeans,
    group_experts_random,
    partition_sse,
)
from moefy.model import D_FFN_AXIS
from moefy.numerics import Rng

from ffn_blocks import KINDS, dense_ffn, ffn_weights, random_block
from oracles import greedy_balanced_assign_loop


def random_layer(rng, d=6, f=12, kind="two_matmul", dtype=np.float32):
    return random_block(rng, kind, d, f, std=1.0, dtype=dtype)


class TestKmeans:
    def test_obvious_two_clusters(self):
        feats = np.array([[0.0], [0.1], [10.0], [10.1]])
        p = group_experts_kmeans(feats, 2, Rng(0))
        assert p.assignment[0] == p.assignment[1]
        assert p.assignment[2] == p.assignment[3]
        assert p.assignment[0] != p.assignment[2]

    # a partition's assignment is derived from its permutation and is balanced
    # whatever k-means did, so capacity is checked on the greedy step itself
    def test_capacity_one(self):
        dist = Rng(1).normal((6, 6), std=1.0) ** 2
        assert sorted(_greedy_balanced_assign(dist, 1).tolist()) == list(range(6))
        feats = Rng(1).normal((6, 3), std=1.0)
        assert group_experts_kmeans(feats, 6, Rng(2)).sse_history[-1] == 0.0

    def test_beats_random_baseline_over_seeds(self):
        for seed in range(5):
            feats = Rng(100 + seed).normal((64, 8), std=1.0)
            km = group_experts_kmeans(feats, 8, Rng(seed))
            rnd = group_experts_random(64, 8, Rng(seed))
            sse_km = partition_sse(feats.astype(np.float64), km.assignment, 8)
            sse_rnd = partition_sse(feats.astype(np.float64), rnd.assignment, 8)
            assert sse_km <= sse_rnd

    def test_sse_history_non_increasing(self):
        feats = Rng(5).normal((48, 6), std=1.0)
        p = group_experts_kmeans(feats, 6, Rng(6))
        hist = p.sse_history
        assert len(hist) >= 1
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    def test_exact_balance(self):
        # every neuron nearest one centroid: an uncapped assignment would fill it
        dist = Rng(7).normal((40, 5), std=1.0) ** 2
        dist[:, 2] -= 10.0
        assert (np.bincount(_greedy_balanced_assign(dist, 8), minlength=5) == 8).all()

    @pytest.mark.parametrize("d_ffn, n_experts", [(6, 6), (40, 5), (512, 32)])
    def test_greedy_step_equals_the_loop(self, d_ffn, n_experts):
        # tie-heavy matrices take few distinct values, so the stable order
        # decides; capacity 1 leaves neurons unplaced unless d_ffn = n_experts
        rng = Rng(d_ffn + n_experts)
        dists = [rng.normal((d_ffn, n_experts), std=1.0) ** 2,
                 np.floor(rng.normal((d_ffn, n_experts), std=1.0) ** 2),
                 np.zeros((d_ffn, n_experts))]
        for dist in dists:
            for capacity in (1, d_ffn // n_experts, d_ffn):
                assert np.array_equal(_greedy_balanced_assign(dist, capacity),
                                      greedy_balanced_assign_loop(dist, capacity))

    def test_assignment_is_the_one_sse_history_scores(self):
        feats = Rng(7).normal((40, 4), std=1.0).astype(np.float64)
        p = group_experts_kmeans(feats, 5, Rng(8))
        assert partition_sse(feats, p.assignment, 5) == p.sse_history[-1]

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            group_experts_kmeans(Rng(9).normal((10, 2), std=1.0), 3, Rng(0))

    def test_deterministic(self):
        feats = Rng(10).normal((32, 4), std=1.0)
        a = group_experts_kmeans(feats, 4, Rng(11))
        b = group_experts_kmeans(feats, 4, Rng(11))
        assert np.array_equal(a.assignment, b.assignment)


class TestRandomGrouping:
    def test_sizes_forced(self):
        p = group_experts_random(64, 2, Rng(0))
        assert (np.bincount(p.assignment) == 32).all()

    def test_deterministic(self):
        assert np.array_equal(
            group_experts_random(16, 4, Rng(3)).permutation,
            group_experts_random(16, 4, Rng(3)).permutation,
        )

    def test_cocluster_probability_one_third(self):
        # d_ffn=4, 2 experts of 2: P(neuron 1 shares a block with neuron 0) = 1/3
        hits = sum(
            group_experts_random(4, 2, Rng(s)).assignment[0]
            == group_experts_random(4, 2, Rng(s)).assignment[1]
            for s in range(1000)
        )
        sigma = np.sqrt(1000 * (1 / 3) * (2 / 3))
        assert abs(hits - 1000 / 3) <= 3 * sigma


class TestApplyPartition:
    def test_identity_permutation(self):
        params = random_layer(Rng(1))
        before = {role: w.copy() for role, w in ffn_weights(params).items()}
        apply_partition(params, 0, ExpertPartition(0, 3, 4, np.arange(12), "random").validate())
        for role, w in ffn_weights(params).items():
            assert np.array_equal(w, before[role])

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_forward_invariant(self, kind):
        # f64: the check targets the permutation, not f32 resummation noise
        params = random_layer(Rng(2), kind=kind, dtype=np.float64)
        p = group_experts_random(12, 3, Rng(3))
        x = Rng(4).normal((5, 6), std=1.0, dtype=np.float64)
        before = dense_ffn(params, x)
        apply_partition(params, 0, p)
        assert np.abs(before - dense_ffn(params, x)).max() < 1e-6

    def test_round_trip_bit_identical(self):
        params = random_layer(Rng(5))
        before = {role: w.copy() for role, w in ffn_weights(params).items()}
        p = group_experts_random(12, 4, Rng(6))
        apply_partition(params, 0, p)
        undo = np.argsort(p.permutation)
        for role, w in before.items():
            back = ffn_weights(params)[role]
            if role in D_FFN_AXIS:
                back = np.take(back, undo, axis=D_FFN_AXIS[role])
            assert np.array_equal(back, w)

    @pytest.mark.parametrize("kind", KINDS)
    def test_takes_each_d_ffn_role_in_place(self, kind):
        params = random_layer(Rng(11), kind=kind)
        old = ffn_weights(params)
        before = {role: w.copy() for role, w in old.items()}
        p = group_experts_random(12, 4, Rng(12))
        apply_partition(params, 0, p)
        for role, w in ffn_weights(params).items():
            assert w is old[role], role  # the parameter's own buffer
            if role in D_FFN_AXIS:
                want = np.take(before[role], p.permutation, axis=D_FFN_AXIS[role])
                assert w.tobytes() == want.tobytes(), role
            else:
                assert w.tobytes() == before[role].tobytes(), role

    def test_length_mismatch(self):
        p = group_experts_random(8, 2, Rng(8))
        for kind in KINDS:
            with pytest.raises(ValueError, match="permutation length 8 != d_ffn 12"):
                apply_partition(random_layer(Rng(7), kind=kind), 0, p)

    def test_contiguity_after_permutation(self):
        p = group_experts_kmeans(Rng(9).normal((24, 4), std=1.0), 4, Rng(10))
        ordered = p.assignment[p.permutation]
        assert np.array_equal(ordered, np.repeat(np.arange(4), 6))
