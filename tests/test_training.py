import tracemalloc

import numpy as np
import pytest

from moefy import training
from moefy.autograd import no_grad, param
from moefy.config import make_synthetic_corpus, load_corpus
from moefy.grouping import apply_partition, group_experts_random
from moefy.losses import LteHyperparams, aux_loss_graph
from moefy.model import ModelConfig, TransformerParams, forward_lm, init_params
from moefy.numerics import F64, Rng
from moefy.routing import router_init
from moefy.training import (
    LOG_COLUMNS,
    TrainHyper,
    TrainingState,
    collect_gradients,
    format_log_row,
    optimizer_step,
    run_training,
    sample_batch,
    train_step,
)

from ffn_blocks import packed_layers
from oracles import finite_diff_grad, param_count


def toy_config(**kw):
    base = dict(vocab_size=13, d_model=8, n_heads=2, n_layers=1, d_ffn=12,
                max_seq_len=8, expert_size=4, activation="gelu_tanh")
    base.update(kw)
    return ModelConfig(**base).validate()


def moefy_params(params, seed=0, router_std=None):
    cfg = params.config
    routers, partitions = [], []
    for i in range(cfg.n_layers):
        p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(seed).split(f"g{i}"))
        apply_partition(params, i, p)
        partitions.append(p)
        routers.append(router_init(cfg.d_model, cfg.n_experts, Rng(seed).split(f"r{i}"),
                                   std=router_std, dtype=params["wte"].data.dtype))
    return routers, partitions


def stage1_total(params, routers, tokens, targets, hp):
    res = forward_lm(params, tokens, ffn_mode="moe_soft", routers=routers)
    task = res.logits.cross_entropy_mean(targets)
    eff, sep = aux_loss_graph(res.score_graph, hp)
    return task + eff * hp.eta + sep * hp.lam


def trainable_vector(trainable):
    return np.concatenate([t.data.ravel() for t in trainable.values()])


def scatter_vector(trainable, vec):
    at = 0
    for t in trainable.values():
        n = t.data.size
        t.data = vec[at:at + n].reshape(t.data.shape).copy()
        at += n


class TestGradients:
    def test_sum_of_one_matrix(self):
        cfg = toy_config()
        params = init_params(cfg, Rng(0)).astype(F64)
        loss = params["block0.ffn.W1"].sum() + params["block0.ffn.b2"].sum() * 0.0
        grads = collect_gradients(loss, dict(params.tensors))
        assert np.array_equal(grads["block0.ffn.W1"], np.ones_like(grads["block0.ffn.W1"]))
        assert not grads["wte"].any()
        assert not grads["block0.ffn.W2"].any()

    def test_stage1_toy_matches_finite_differences(self):
        cfg = toy_config()
        assert param_count(cfg) < 5000
        hp = LteHyperparams(eta=1.0, lam=0.5)
        params = init_params(cfg, Rng(1)).astype(F64)
        routers, _ = moefy_params(params, seed=1, router_std=0.8)
        tokens = Rng(2).integers(0, cfg.vocab_size, size=6)
        targets = Rng(3).integers(0, cfg.vocab_size, size=6)

        trainable = dict(params.tensors)
        trainable["router.0.Wg"] = routers[0].Wg
        loss = stage1_total(params, routers, tokens, targets, hp)
        grads = collect_gradients(loss, trainable)
        analytic = np.concatenate([grads[n].ravel() for n in trainable])

        base = trainable_vector(trainable)

        def f(vec):
            scatter_vector(trainable, vec)
            with no_grad():
                out = float(stage1_total(params, routers, tokens, targets, hp).data)
            scatter_vector(trainable, base)
            return out

        fd = finite_diff_grad(f, base, eps=1e-5)
        denom = np.maximum(np.abs(fd), 1e-4 * np.abs(fd).max())
        rel = np.abs(analytic - fd) / denom
        assert rel.max() < 1e-4

    def test_stage1_toy_batch_matches_finite_differences(self):
        # the same objective over a (B=2, T=6) batch; tolerance as criterion 2
        cfg = toy_config()
        hp = LteHyperparams(eta=1.0, lam=0.5)
        params = init_params(cfg, Rng(21)).astype(F64)
        routers, _ = moefy_params(params, seed=21, router_std=0.8)
        tokens = Rng(22).integers(0, cfg.vocab_size, size=(2, 6))
        targets = Rng(23).integers(0, cfg.vocab_size, size=(2, 6)).reshape(-1)

        trainable = dict(params.tensors)
        trainable["router.0.Wg"] = routers[0].Wg
        grads = collect_gradients(stage1_total(params, routers, tokens, targets, hp), trainable)
        analytic = np.concatenate([grads[n].ravel() for n in trainable])
        base = trainable_vector(trainable)

        def f(vec):
            scatter_vector(trainable, vec)
            with no_grad():
                out = float(stage1_total(params, routers, tokens, targets, hp).data)
            scatter_vector(trainable, base)
            return out

        fd = finite_diff_grad(f, base, eps=1e-6)
        denom = np.maximum(np.abs(fd), 1e-4 * np.abs(fd).max())
        assert (np.abs(analytic - fd) / denom).max() <= 1e-4

    def test_finite_difference_eps_cross_check(self):
        cfg = toy_config()
        hp = LteHyperparams(eta=0.5, lam=0.5)
        params = init_params(cfg, Rng(4)).astype(F64)
        routers, _ = moefy_params(params, seed=4, router_std=0.8)
        tokens = Rng(5).integers(0, cfg.vocab_size, size=5)
        targets = Rng(6).integers(0, cfg.vocab_size, size=5)
        # probe a slice of router + W1 coordinates with two step sizes
        wg = routers[0].Wg

        def f(vec):
            old = wg.data.copy()
            wg.data = vec.reshape(wg.data.shape).copy()
            with no_grad():
                out = float(stage1_total(params, routers, tokens, targets, hp).data)
            wg.data = old
            return out

        base = wg.data.ravel().copy()
        g4 = finite_diff_grad(f, base, eps=1e-4)
        g5 = finite_diff_grad(f, base, eps=1e-5)
        denom = np.maximum(np.abs(g5), 1e-4 * np.abs(g5).max())
        assert (np.abs(g4 - g5) / denom).max() < 1e-4

    def test_stage2_unselected_expert_gets_zero_grad(self):
        cfg = toy_config()
        params = init_params(cfg, Rng(7))
        routers, partitions = moefy_params(params, seed=7, router_std=1.0)
        routers[0].Wg.data[:, 0] = 0.0  # expert 0 scores exactly 0.5 -> never above tau
        tokens = Rng(8).integers(0, cfg.vocab_size, size=6)
        targets = Rng(9).integers(0, cfg.vocab_size, size=6)
        res = forward_lm(params, tokens, ffn_mode="moe_discrete", routers=routers, tau=0.5)
        assert not res.decisions[0].mask[:, 0].any()
        loss = res.logits.cross_entropy_mean(targets)
        grads = collect_gradients(loss, dict(params.tensors))
        e = cfg.expert_size
        assert not grads["block0.ffn.W1"][:, :e].any()
        assert not grads["block0.ffn.b1"][:e].any()
        assert not grads["block0.ffn.W2"][:e, :].any()
        # selected experts do receive gradient
        assert grads["block0.ffn.W1"][:, e:].any()


class TestOptimizer:
    def tiny_state(self, value, lr=0.1):
        cfg = toy_config()
        params = TransformerParams(cfg, {"w": param(np.array([value], dtype=np.float64))})
        hyper = TrainHyper(lr=lr, total_steps=10)
        assert hyper.warmup_steps == 1  # step 1 runs at the full lr
        return TrainingState(params=params, hyper=hyper, rng=Rng(0))

    def test_zero_grad_no_decay_is_identity(self):
        st = self.tiny_state(1.5)
        st.step = 1
        optimizer_step(st, {"w": np.zeros(1)})
        assert st.params["w"].data[0] == 1.5

    def test_first_step_moves_by_lr_sign(self):
        for g in (0.37, -2.2):
            st = self.tiny_state(0.0, lr=0.01)
            st.step = 1
            optimizer_step(st, {"w": np.array([g])})
            assert abs(st.params["w"].data[0] + 0.01 * np.sign(g)) < 1e-6

    def test_warmup_scales_early_steps(self):
        cfg = toy_config()
        params = TransformerParams(cfg, {"w": param(np.zeros(1, dtype=np.float64))})
        hyper = TrainHyper(lr=0.1, total_steps=100)
        assert hyper.warmup_steps == 6  # ceil(WARMUP_RATIO * 100)
        st = TrainingState(params=params, hyper=hyper, rng=Rng(0))
        st.step = 1
        optimizer_step(st, {"w": np.array([1.0])})
        assert abs(params["w"].data[0] + 0.1 * (1 / 6)) < 1e-6

    def test_bitwise_equal_to_expression_form(self):
        # the expression Adam the scratch-buffer form replaced, as a bitwise oracle
        cfg = toy_config()
        rng = Rng(5)
        w0 = {"a": rng.normal((33, 17), dtype=np.float32),
              "b": rng.normal((64,), dtype=np.float32)}
        grads = [{k: rng.normal(v.shape, std=0.3, dtype=np.float32) for k, v in w0.items()}
                 for _ in range(4)]
        params = TransformerParams(cfg, {k: param(v.copy()) for k, v in w0.items()})
        hyper = TrainHyper(lr=0.01, total_steps=50)
        assert hyper.warmup_steps == 3  # steps 1-3 of the 4 warm up
        st = TrainingState(params=params, hyper=hyper, rng=Rng(0))
        want = {k: v.copy() for k, v in w0.items()}
        m = {k: np.zeros_like(v) for k, v in w0.items()}
        v = {k: np.zeros_like(x) for k, x in w0.items()}
        for t, gs in enumerate(grads, start=1):
            st.step = t
            before = {k: g.tobytes() for k, g in gs.items()}
            optimizer_step(st, gs)
            assert {k: g.tobytes() for k, g in gs.items()} == before
            lr_t = hyper.lr * min(1.0, t / hyper.warmup_steps)
            bc1, bc2 = 1.0 - training.BETA1**t, 1.0 - training.BETA2**t
            for k, g in gs.items():
                p = want[k]
                m[k] += (1.0 - training.BETA1) * (g - m[k])
                v[k] += (1.0 - training.BETA2) * (g * g - v[k])
                update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + training.ADAM_EPS)
                p -= (lr_t * update).astype(p.dtype)
            for k in w0:
                assert st.params[k].data.tobytes() == want[k].tobytes(), (t, k)
                assert st.m[k].tobytes() == m[k].tobytes() and st.v[k].tobytes() == v[k].tobytes()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "train.txt"
    make_synthetic_corpus(str(path), n_bytes=60_000, seed=3)
    return load_corpus(str(path))


def make_state(corpus, seed=0, stage="base", steps=50, eta=1.0, lam=0.5, **cfg_kw):
    cfg_kw.setdefault("vocab_size", 256)
    cfg_kw.setdefault("d_model", 16)
    cfg_kw.setdefault("n_heads", 2)
    cfg_kw.setdefault("n_layers", 1)
    cfg_kw.setdefault("d_ffn", 16)
    cfg_kw.setdefault("expert_size", 4)
    cfg_kw.setdefault("max_seq_len", 64)
    cfg = ModelConfig(**cfg_kw).validate()
    params = init_params(cfg, Rng(seed).split("init"))
    routers = None
    if stage != "base":
        routers, _ = moefy_params(params, seed=seed)
    hyper = TrainHyper(lr=3e-3, batch_size=4, seq_len=32, total_steps=steps)
    return TrainingState(
        params=params, hyper=hyper, rng=Rng(seed).split("batches"), stage=stage,
        routers=routers, aux=LteHyperparams(eta=eta, lam=lam),
    )


class TestRuns:
    def test_sample_batch_shapes_and_shift(self):
        data = np.arange(100, dtype=np.uint8)
        xs, ys = sample_batch(data, Rng(0), 3, 10)
        assert xs.shape == ys.shape == (3, 10) and xs.dtype == ys.dtype == np.int64
        assert np.array_equal(xs[:, 1:], ys[:, :-1])
        # the same draws as one window per start
        starts = Rng(0).integers(0, 100 - 10 - 1, size=3)
        assert np.array_equal(xs, [data[s:s + 10] for s in starts])
        assert np.array_equal(ys, [data[s + 1:s + 11] for s in starts])

    def test_deterministic_logs(self, small_corpus):
        rows_a = run_training(make_state(small_corpus, seed=5), small_corpus.train, 6)
        rows_b = run_training(make_state(small_corpus, seed=5), small_corpus.train, 6)
        log_a = [format_log_row(s, bd, sp) for s, bd, sp in rows_a]
        log_b = [format_log_row(s, bd, sp) for s, bd, sp in rows_b]
        assert log_a == log_b

    def test_base_training_reduces_loss(self, small_corpus):
        st = make_state(small_corpus, seed=6, steps=60)
        rows = run_training(st, small_corpus.train, 60)
        first = np.mean([r[1].task for r in rows[:5]])
        last = np.mean([r[1].task for r in rows[-5:]])
        assert last < first

    def test_stage1_requires_routers(self, small_corpus):
        st = make_state(small_corpus, seed=7)
        st.stage = "stage1"
        with pytest.raises(ValueError, match="stage1 requires routers"):
            run_training(st, small_corpus.train, 2)

    def test_stage2_router_bytes_frozen(self, small_corpus):
        st = make_state(small_corpus, seed=8, stage="stage2", steps=8)
        before = [r.Wg.data.tobytes() for r in st.routers]
        run_training(st, small_corpus.train, 8)
        after = [r.Wg.data.tobytes() for r in st.routers]
        assert before == after

    def test_stage2_fixed_batch_sparsity_trace_constant(self, small_corpus):
        # routers frozen: re-evaluating one checkpoint on one batch gives the
        # same masks (and so the same sparsity) every time
        st = make_state(small_corpus, seed=9, steps=4)
        st.routers, partitions = moefy_params(st.params, seed=9)
        st.stage = "stage2"
        run_training(st, small_corpus.train, 4)
        xs, _ = sample_batch(small_corpus.train, Rng(99), 2, 32)
        traces, packed = [], packed_layers(st.params, partitions)
        for _ in range(3):
            with no_grad():
                masks = [forward_lm(st.params, x, "moe_discrete", routers=st.routers,
                                    partitions=partitions, packed=packed).decisions[0].mask
                         for x in xs]
            traces.append(np.concatenate([m.ravel() for m in masks]))
        assert np.array_equal(traces[0], traces[1])
        assert np.array_equal(traces[0], traces[2])

    def test_stage1_eta_large_pushes_scores_down(self, small_corpus):
        st = make_state(small_corpus, seed=10, stage="stage1", steps=40, eta=10.0)
        rows = run_training(st, small_corpus.train, 40)
        first_scores = rows[0][1].mean_score_per_layer[0]
        last_scores = rows[-1][1].mean_score_per_layer[0]
        assert abs(first_scores - 0.5) < 0.05  # init near 0.5
        assert last_scores < first_scores

    def test_stage1_plain_finetune_matches_dense_trend(self, small_corpus):
        dense = make_state(small_corpus, seed=11, steps=150)
        rows_d = run_training(dense, small_corpus.train, 150)
        soft = make_state(small_corpus, seed=11, stage="stage1", steps=150, eta=0.0, lam=0.0)
        rows_s = run_training(soft, small_corpus.train, 150)
        final_d = np.mean([r[1].task for r in rows_d[-10:]])
        final_s = np.mean([r[1].task for r in rows_s[-10:]])
        assert abs(final_s - final_d) / final_d < 0.10

    @pytest.mark.parametrize("stage", ["base", "stage1", "stage2"])
    def test_batched_step_matches_per_sequence_formulas(self, small_corpus, stage):
        st = make_state(small_corpus, seed=13, stage=stage, steps=4)
        st.params = st.params.astype(F64)
        if st.routers is not None:
            for r in st.routers:
                r.Wg = param(r.Wg.data.astype(F64))
        batch = sample_batch(small_corpus.train, Rng(14), 3, 32)
        mode = {"base": "dense", "stage1": "moe_soft", "stage2": "moe_discrete"}[stage]
        tau, hp = st.aux.tau, st.aux
        # the per-sequence formulas, with the graph-mode FFN train_step runs
        runs = [forward_lm(st.params, x, ffn_mode=mode, routers=st.routers, tau=tau)
                for x in batch[0]]
        task = np.mean([r.logits.cross_entropy_mean(y).item() for r, y in zip(runs, batch[1])])
        below, layers = [], []
        if stage != "base":
            layers = [[r.decisions[l].scores for r in runs]
                      for l in range(st.params.config.n_layers)]
            below = [float((d.scores <= tau).mean()) for r in runs for d in r.decisions]
            with no_grad():
                scores = [param(np.concatenate(layer)) for layer in layers]
                eff, sep = (t.item() for t in aux_loss_graph(scores, hp))

        bd, sparsity = train_step(st, batch)
        assert abs(bd.task - task) < 1e-12
        assert abs(sparsity - (np.mean(below) if below else 0.0)) < 1e-12
        if stage == "base":
            assert bd.efficiency == bd.separability == 0.0 and bd.total == bd.task
            return
        assert abs(bd.efficiency - eff) < 1e-12 and abs(bd.separability - sep) < 1e-12
        if stage == "stage1":
            assert abs(bd.total - (task + hp.eta * eff + hp.lam * sep)) < 1e-12
            for l, layer in enumerate(layers):
                mean = np.mean([g.mean() for g in layer])
                assert abs(bd.mean_score_per_layer[l] - mean) < 1e-12
        else:
            assert bd.total == bd.task

    def test_log_records_clip_gradients_norm(self, small_corpus, tmp_path, monkeypatch):
        norms = []
        clip = training.clip_gradients

        def recording(grads, max_norm):
            norms.append(clip(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(training, "clip_gradients", recording)
        st = make_state(small_corpus, seed=16, stage="stage1", steps=9)
        paths = [tmp_path / f"{p}.log" for p in training.STAGES]
        for stage, path in zip(training.STAGES, paths):
            st.stage = stage
            rows = run_training(st, small_corpus.train, 3, log_path=str(path))
            assert [bd.grad_norm for _, bd, _ in rows] == norms[-3:]
        assert len(norms) == 9 and all(v > 0 for v in norms)
        logged = []
        for path in paths:
            header, *lines = path.read_text().splitlines()
            assert header.split("\t") == list(LOG_COLUMNS) and LOG_COLUMNS[-1] == "grad_norm"
            assert LOG_COLUMNS[1] == "task"
            logged += [line.split("\t")[-1] for line in lines]
        assert logged == [f"{v:.8g}" for v in norms]

    def test_monitored_sparsity_bounds(self, small_corpus):
        st = make_state(small_corpus, seed=12, stage="stage1", steps=3)
        rows = run_training(st, small_corpus.train, 3)
        for _, _, sparsity in rows:
            assert 0.0 <= sparsity <= 1.0

    def test_stage1_backward_peak_stays_near_forward_memory(self, small_corpus, monkeypatch):
        # the tape keeps only the arrays backward reads (about 25 MB here;
        # keeping every op's output would take about 35), and backward
        # consumes it, so the backward peak stays near the forward memory
        # (about 1.1x); a tape kept whole until the step returns peaks near 2.2x
        params = init_params(ModelConfig().validate(), Rng(0).split("init"))
        routers, _ = moefy_params(params)
        st = TrainingState(params=params, hyper=TrainHyper(), rng=Rng(0), stage="stage1",
                           routers=routers)
        batch = sample_batch(small_corpus.train, Rng(1), st.hyper.batch_size, st.hyper.seq_len)
        seen = {}
        collect = training.collect_gradients

        def traced(loss, trainable):
            seen["forward"] = tracemalloc.get_traced_memory()[0] - seen["start"]
            tracemalloc.reset_peak()
            grads = collect(loss, trainable)
            seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["start"]
            return grads

        monkeypatch.setattr(training, "collect_gradients", traced)
        tracemalloc.start()
        try:
            seen["start"] = tracemalloc.get_traced_memory()[0]
            train_step(st, batch)
        finally:
            tracemalloc.stop()
        assert 20e6 < seen["forward"] < 29e6, seen
        assert seen["peak"] < 1.25 * seen["forward"], seen

    @pytest.mark.parametrize("ffn_kind", ["two_matmul", "swiglu"])
    def test_gradients_are_contiguous_and_of_the_parameter_dtype(self, small_corpus, ffn_kind):
        # clip_gradients sums each gradient in memory order, and the optimizer
        # adds it to a C-contiguous moment of the parameter's dtype
        st = make_state(small_corpus, seed=17, stage="stage1", steps=2, ffn_kind=ffn_kind)
        for stage in ("stage1", "stage2"):
            st.stage = stage
            train_step(st, sample_batch(small_corpus.train, Rng(18), 4, 32))
            for name, t in st.trainable().items():
                assert t.grad.flags.c_contiguous and t.grad.dtype == t.dtype, (stage, name)

    def test_stage2_ffn_makes_no_blocked_matmul(self, small_corpus, monkeypatch):
        # the discrete FFN runs as the union kernel's graph op, whose products go
        # to BLAS directly: a stage-2 forward's K-blocked products are
        # attention's four projections (q, k, v, output), its scores and
        # context products and the router per layer, plus the LM head, and
        # backward's are two for each of attention's six products and the LM head
        from moefy import numerics

        layers = 2
        st = make_state(small_corpus, seed=15, stage="stage2", steps=2, n_layers=layers)
        calls, phase = {"forward": 0, "backward": 0}, ["forward"]
        blocked, collect = numerics.matmul, training.collect_gradients

        def counting(a, b):
            calls[phase[0]] += 1
            return blocked(a, b)

        def backward_phase(loss, trainable):
            phase[0] = "backward"
            return collect(loss, trainable)

        monkeypatch.setattr(numerics, "matmul", counting)
        monkeypatch.setattr(training, "collect_gradients", backward_phase)
        train_step(st, sample_batch(small_corpus.train, Rng(16), 4, 32))
        assert calls == {"forward": layers * 7 + 1, "backward": 2 * (layers * 6 + 1)}
