import numpy as np
import pytest

from moefy.grouping import (
    ExpertPartition,
    apply_partition,
    group_experts_kmeans,
    group_experts_random,
    partition_sse,
)
from moefy.model import FfnLayer, GluFfnLayer
from moefy.numerics import Rng

from ffn_blocks import dense_ffn


def random_layer(rng, d=6, f=12, kind="two_matmul", dtype=np.float32):
    if kind == "two_matmul":
        return FfnLayer(rng.normal((d, f), std=1.0, dtype=dtype),
                        rng.normal((f,), std=1.0, dtype=dtype),
                        rng.normal((f, d), std=1.0, dtype=dtype),
                        rng.normal((d,), std=1.0, dtype=dtype), "gelu_tanh")
    return GluFfnLayer(rng.normal((d, f), std=1.0, dtype=dtype),
                       rng.normal((d, f), std=1.0, dtype=dtype),
                       rng.normal((f, d), std=1.0, dtype=dtype))


class TestKmeans:
    def test_obvious_two_clusters(self):
        feats = np.array([[0.0], [0.1], [10.0], [10.1]])
        p = group_experts_kmeans(feats, 2, Rng(0))
        assert p.assignment[0] == p.assignment[1]
        assert p.assignment[2] == p.assignment[3]
        assert p.assignment[0] != p.assignment[2]

    def test_capacity_one(self):
        feats = Rng(1).normal((6, 3), std=1.0)
        p = group_experts_kmeans(feats, 6, Rng(2))
        assert sorted(p.assignment.tolist()) == list(range(6))

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
        feats = Rng(7).normal((40, 4), std=1.0)
        p = group_experts_kmeans(feats, 5, Rng(8))
        assert (np.bincount(p.assignment) == 8).all()

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
        layer = random_layer(Rng(1))
        p = ExpertPartition(0, 3, 4, np.arange(12) // 4, np.arange(12), "random").validate()
        out = apply_partition(layer, p)
        assert np.array_equal(out.W1, layer.W1)
        assert np.array_equal(out.W2, layer.W2)
        assert out.partition is p

    @pytest.mark.parametrize("kind", ["two_matmul", "swiglu"])
    def test_forward_invariant(self, kind):
        # f64: the check targets the permutation, not f32 resummation noise
        layer = random_layer(Rng(2), kind=kind, dtype=np.float64)
        p = group_experts_random(12, 3, Rng(3))
        permuted = apply_partition(layer, p)
        x = Rng(4).normal((5, 6), std=1.0, dtype=np.float64)
        assert np.abs(dense_ffn(layer, x) - dense_ffn(permuted, x)).max() < 1e-6

    def test_round_trip_bit_identical(self):
        layer = random_layer(Rng(5))
        p = group_experts_random(12, 4, Rng(6))
        back = apply_partition(apply_partition(layer, p), p, inverse=True)
        assert np.array_equal(back.W1, layer.W1)
        assert np.array_equal(back.b1, layer.b1)
        assert np.array_equal(back.W2, layer.W2)
        assert back.partition is None

    def test_length_mismatch(self):
        layer = random_layer(Rng(7))
        p = group_experts_random(8, 2, Rng(8))
        with pytest.raises(ValueError):
            apply_partition(layer, p)

    def test_contiguity_after_permutation(self):
        p = group_experts_kmeans(Rng(9).normal((24, 4), std=1.0), 4, Rng(10))
        ordered = p.assignment[p.permutation]
        assert np.array_equal(ordered, np.repeat(np.arange(4), 6))
