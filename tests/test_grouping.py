import numpy as np
import pytest

from moefy.autograd import no_grad
from moefy.checkpoint import CheckpointBundle, load_checkpoint, save_checkpoint
from moefy.grouping import (
    ExpertPartition,
    _greedy_balanced_assign,
    apply_partition,
    group_experts_kmeans,
    group_experts_random,
    order_experts_by_rate,
    partition_sse,
)
from moefy.model import D_FFN_AXIS, ModelConfig, ffn_param_names, forward_lm, init_params
from moefy.numerics import Rng
from moefy.routing import router_init

from ffn_blocks import KINDS, dense_ffn, ffn_weights, packed_layers, random_block
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


def routed_bundle(kind: str, seed: int = 0) -> tuple[CheckpointBundle, dict]:
    """A two-layer model of normal(0, 0.3) weights (gains around 1), its
    experts grouped at random, with routers that select a mix of experts at
    tau 0.5; and its weights before grouping, by name."""
    cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2, d_ffn=32, expert_size=4,
                      max_seq_len=32, ffn_kind=kind).validate()
    rng = Rng(seed)
    params = init_params(cfg, rng.split("init"))
    for name, t in params.tensors.items():
        t.data[...] = rng.split(name).normal(t.data.shape, std=0.3) + name.endswith(".g")
    ungrouped = {name: t.data.copy() for name, t in params.tensors.items()}
    parts = [group_experts_random(cfg.d_ffn, cfg.n_experts, rng.split(f"p{i}"), layer_index=i)
             for i in range(cfg.n_layers)]
    for i, p in enumerate(parts):
        apply_partition(params, i, p)
    routers = [router_init(cfg.d_model, cfg.n_experts, rng.split(f"r{i}"), std=0.3)
               for i in range(cfg.n_layers)]
    return CheckpointBundle(config=cfg, params=params, partitions=parts, routers=routers,
                            stage="stage2"), ungrouped


def logits_and_masks(bundle: CheckpointBundle, tokens: np.ndarray) -> dict:
    """path -> (logits, per-layer masks): dense, lte with a graph, lte without."""
    lte = dict(ffn_mode="moe_discrete", routers=bundle.routers, tau=0.5)
    out = {"dense": (forward_lm(bundle.params, tokens).logits.data, None)}
    res = forward_lm(bundle.params, tokens, **lte)
    out["graph lte"] = (res.logits.data, [d.mask for d in res.decisions])
    with no_grad():
        res = forward_lm(bundle.params, tokens, **lte, partitions=bundle.partitions,
                         packed=packed_layers(bundle.params, bundle.partitions))
    out["no-grad lte"] = (res.logits.data, [d.mask for d in res.decisions])
    return out


class TestOrderExpertsByRate:
    TOKENS = np.random.default_rng(0).integers(0, 256, (3, 24))

    def relabel(self, bundle, masks) -> list:
        """Relabel every layer by its mask's rates; returns each layer's order."""
        orders = [np.argsort(-m.mean(axis=0), kind="stable") for m in masks]
        bundle.partitions = [order_experts_by_rate(bundle.params, i, p, r.Wg.data, m)
                             for i, (p, r, m) in enumerate(zip(bundle.partitions,
                                                               bundle.routers, masks))]
        return orders

    @pytest.mark.parametrize("kind", KINDS)
    def test_logits_and_selections_kept(self, kind):
        bundle, _ = routed_bundle(kind)
        before = logits_and_masks(bundle, self.TOKENS)
        masks = before["no-grad lte"][1]
        orders = self.relabel(bundle, masks)
        assert any((o != np.arange(o.size)).any() for o in orders)
        after = logits_and_masks(bundle, self.TOKENS)
        for path, (logits, layer_masks) in after.items():
            np.testing.assert_allclose(logits, before[path][0], rtol=0, atol=1e-5,
                                       err_msg=path)
            for m, was, order in zip(layer_masks or (), before[path][1] or (), orders):
                assert np.array_equal(m, was[:, order]), path
        for m in after["no-grad lte"][1]:
            rates = m.mean(axis=0)
            assert (np.diff(rates) <= 0).all() and 0 < m.mean() < 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_composed_partition_and_checkpoint_round_trip(self, kind, tmp_path):
        bundle, ungrouped = routed_bundle(kind)
        self.relabel(bundle, logits_and_masks(bundle, self.TOKENS)["no-grad lte"][1])
        for p in bundle.partitions:
            p.validate()
        # the composed permutation maps the ungrouped weights onto the relabeled ones
        for i, p in enumerate(bundle.partitions):
            for role, name in ffn_param_names(bundle.config, i).items():
                want = ungrouped[name]
                if role in D_FFN_AXIS:
                    want = np.take(want, p.permutation, axis=D_FFN_AXIS[role])
                assert bundle.params[name].data.tobytes() == want.tobytes(), name
        path = tmp_path / "relabeled.ckpt"
        save_checkpoint(str(path), bundle)
        loaded = load_checkpoint(str(path))
        for p, q in zip(bundle.partitions, loaded.partitions):
            assert np.array_equal(p.permutation, q.permutation)
        for r, q in zip(bundle.routers, loaded.routers):
            assert r.Wg.data.tobytes() == q.Wg.data.tobytes()
        for name in bundle.params.names():
            assert bundle.params[name].data.tobytes() == loaded.params[name].data.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_order_is_descending_rate_ties_by_index(self, kind):
        params = random_layer(Rng(13), kind=kind)
        before = {role: w.copy() for role, w in ffn_weights(params).items()}
        p = ExpertPartition(0, 4, 3, np.arange(12), "random").validate()
        wg = Rng(14).normal((6, 4), std=1.0)
        wg_before = wg.copy()
        mask = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 0]], dtype=bool)
        got = order_experts_by_rate(params, 0, p, wg, mask)  # rates 2/3, 1/3, 2/3, 0
        order = [0, 2, 1, 3]
        units = np.array([3 * e + u for e in order for u in range(3)])
        assert np.array_equal(got.permutation, units)
        assert wg.tobytes() == wg_before[:, order].tobytes()
        for role, w in ffn_weights(params).items():
            want = (np.take(before[role], units, axis=D_FFN_AXIS[role])
                    if role in D_FFN_AXIS else before[role])
            assert w.tobytes() == want.tobytes(), role

    def test_shape_mismatch(self):
        p = ExpertPartition(0, 4, 3, np.arange(12), "random").validate()
        for mask, wg in ((np.ones((2, 3), bool), np.zeros((6, 4))),
                         (np.ones((2, 4), bool), np.zeros((6, 3)))):
            with pytest.raises(ValueError, match="for 4 experts"):
                order_experts_by_rate(random_layer(Rng(15)), 0, p, wg, mask)
