"""Acceptance suite: ten gate criteria, one test and one printed verdict each.

Training-based criteria share a session corpus (1 MB synthetic text) and cache
trained base models per seed. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import contextlib
import math

import numpy as np
import pytest

from moefy.analysis import collect_decisions, val_windows
from moefy.autograd import no_grad, param as mkparam
from moefy.checkpoint import CheckpointBundle
from moefy.cli import main as cli_main
from moefy.config import load_corpus, make_synthetic_corpus
from moefy.grouping import (
    apply_partition,
    group_experts_kmeans,
    group_experts_random,
    partition_sse,
)
from moefy.losses import LteHyperparams, aux_loss_graph
from moefy.model import (
    ModelConfig,
    TransformerParams,
    forward_lm,
    init_params,
)
from moefy.numerics import F64, Rng
from moefy.routing import router_init
from moefy.sparse_exec import bench, flops_per_token, sparse_ffn_forward
from moefy.training import TrainHyper, TrainingState, run_training

from ffn_blocks import expert_oracle, ffn_weights, permuted_block
from oracles import finite_diff_grad, near_tau_fraction, param_count, prefix_union_sparsity

MODEL = dict(vocab_size=256, d_model=64, n_heads=4, n_layers=2, d_ffn=256,
             expert_size=8, max_seq_len=128)
LR, BATCH, SEQ = 2e-3, 8, 64
BASE_STEPS, S1_STEPS, S2_STEPS = 300, 400, 200


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "corpus.txt"
    make_synthetic_corpus(str(path), n_bytes=1_000_000, seed=7)
    return load_corpus(str(path))


class Runs:
    """Caches trained artifacts shared across criteria."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.cfg = ModelConfig(**MODEL).validate()
        self._base: dict[int, dict] = {}

    def base_weights(self, seed: int) -> dict:
        if seed not in self._base:
            params = init_params(self.cfg, Rng(seed).split("init"))
            st = TrainingState(
                params=params,
                hyper=TrainHyper(lr=LR, batch_size=BATCH, seq_len=SEQ, total_steps=BASE_STEPS),
                rng=Rng(seed).split("base"), stage="base",
            )
            run_training(st, self.corpus.train, BASE_STEPS)
            self._base[seed] = {k: t.data.copy() for k, t in params.tensors.items()}
        return self._base[seed]

    def moefied_state(self, seed: int, eta: float, lam: float,
                      steps: int) -> tuple[TrainingState, list]:
        blob = self.base_weights(seed)
        params = TransformerParams(self.cfg, {k: mkparam(v.copy()) for k, v in blob.items()})
        parts, routers = [], []
        for i in range(self.cfg.n_layers):
            p = group_experts_kmeans(ffn_weights(params, i)["up"].T, self.cfg.n_experts,
                                     Rng(seed).split(f"g{i}"), layer_index=i)
            apply_partition(params, i, p)
            parts.append(p)
            routers.append(router_init(self.cfg.d_model, self.cfg.n_experts,
                                       Rng(seed).split(f"r{i}")))
        return TrainingState(
            params=params,
            hyper=TrainHyper(lr=LR, batch_size=BATCH, seq_len=SEQ, total_steps=steps),
            rng=Rng(seed).split("s1"), stage="stage1", routers=routers,
            aux=LteHyperparams(eta=eta, lam=lam),
        ), parts

    def stage1(self, seed: int, eta: float, lam: float, steps: int = S1_STEPS):
        st, parts = self.moefied_state(seed, eta, lam, steps)
        rows = run_training(st, self.corpus.train, steps)
        return st, parts, rows

    def bundle(self, st: TrainingState, parts: list) -> CheckpointBundle:
        return CheckpointBundle(config=self.cfg, params=st.params,
                                partitions=parts, routers=st.routers, stage="run")


@pytest.fixture(scope="session")
def runs(corpus):
    return Runs(corpus)


def random_packed(kind: str, dtype, seed: int, d=32, f=64, n=8):
    return permuted_block(Rng(seed), kind, d, f, n, std=0.3, bias_std=0.2, dtype=dtype)


def test_criterion_1_sparse_dense_equivalence():
    worst = {}
    for kind in ("two_matmul", "swiglu"):
        for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-10)):
            err = 0.0
            for trial in range(100):
                params, packed = random_packed(kind, dtype, 10_000 + trial)
                srng = Rng(20_000 + trial)
                x = srng.normal((3, 32), std=1.0, dtype=dtype)
                mask = np.zeros((3, 8), dtype=bool)
                for row in mask:
                    row[srng.choice(8, int(srng.integers(0, 9)))] = True
                y = sparse_ffn_forward(packed, mask, x)
                for t in range(3):
                    ref = expert_oracle(params, x[t:t + 1], mask[t], 8)
                    err = max(err, float(np.abs(y[t] - ref[0]).max()))
            worst[(kind, np.dtype(dtype).name)] = (err, tol)
    ok = all(err <= tol for err, tol in worst.values())
    detail = "sparse/dense equivalence " + ", ".join(
        f"{k[0]}/{k[1]} max={e:.2e} (tol {t:g})" for k, (e, t) in worst.items())
    report(1, ok, detail)


def toy_stage1_loss(params, routers, tokens, targets, hp):
    res = forward_lm(params, tokens, ffn_mode="moe_soft", routers=routers)
    task = res.logits.cross_entropy_mean(targets)
    eff, sep = aux_loss_graph(res.score_graph, hp)
    return task + eff * hp.eta + sep * hp.lam


def toy_stage2_loss(params, routers, tokens, targets, hp):
    # the graph-mode discrete FFN; stage 2 trains the model alone on the task
    res = forward_lm(params, tokens, ffn_mode="moe_discrete", routers=routers, tau=hp.tau)
    masks = np.concatenate([d.mask for d in res.decisions])
    assert 0 < masks.mean() < 1, "the check needs mixed selections"
    return res.logits.cross_entropy_mean(targets)


def test_criterion_2_gradient_fidelity():
    cfg = ModelConfig(vocab_size=13, d_model=8, n_heads=2, n_layers=1, d_ffn=12,
                      max_seq_len=8, expert_size=4).validate()
    assert param_count(cfg) < 5000
    hp = LteHyperparams(eta=1.0, lam=0.5)
    worst = {"stage 1": 0.0, "stage 2": 0.0}
    for seed in range(5):
        params = init_params(cfg, Rng(seed).split("init")).astype(F64)
        routers = []
        for i in range(cfg.n_layers):
            p = group_experts_random(cfg.d_ffn, cfg.n_experts, Rng(seed).split(f"g{i}"))
            apply_partition(params, i, p)
            routers.append(router_init(cfg.d_model, cfg.n_experts,
                                       Rng(seed).split(f"r{i}"), std=0.8, dtype=np.float64))
        tokens = Rng(seed).split("tok").integers(0, cfg.vocab_size, size=6)
        targets = Rng(seed).split("tgt").integers(0, cfg.vocab_size, size=6)
        # stage 1 trains the routers with the model; stage 2 freezes them
        stage1 = dict(params.tensors)
        stage1["router.0.Wg"] = routers[0].Wg
        for stage, loss_fn, trainable in (("stage 1", toy_stage1_loss, stage1),
                                          ("stage 2", toy_stage2_loss, dict(params.tensors))):
            for t in stage1.values():
                t.zero_grad()
            loss = loss_fn(params, routers, tokens, targets, hp)
            loss.backward()
            analytic = np.concatenate([trainable[n].grad.ravel() for n in trainable])
            base = np.concatenate([t.data.ravel() for t in trainable.values()])

            def f(vec):
                at = 0
                for t in trainable.values():
                    n = t.data.size
                    t.data = vec[at:at + n].reshape(t.data.shape).copy()
                    at += n
                # stage 2 evaluates through the graph op, as it trains
                with no_grad() if loss_fn is toy_stage1_loss else contextlib.nullcontext():
                    out = float(loss_fn(params, routers, tokens, targets, hp).data)
                return out

            # eps 1e-6: the separability term's third derivative near the guard edge
            # makes 1e-5 truncation-limited (error scales as eps^2, verified)
            fd = finite_diff_grad(f, base, eps=1e-6)
            f(base)  # put back the unperturbed values
            denom = np.maximum(np.abs(fd), 1e-4 * np.abs(fd).max())
            worst[stage] = max(worst[stage], float((np.abs(analytic - fd) / denom).max()))
    report(2, max(worst.values()) <= 1e-4, "gradient fidelity: max relative error "
           + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + " over 5 seeds (tol 1e-4)")


def test_criterion_3_balanced_clustering():
    balanced, monotone, beats = True, True, True
    for seed in range(5):
        feats = Rng(3000 + seed).normal((128, 16), std=1.0, dtype=np.float64)
        km = group_experts_kmeans(feats, 16, Rng(seed))
        rd = group_experts_random(128, 16, Rng(seed))
        balanced &= bool((np.bincount(km.assignment, minlength=16) == 8).all())
        hist = km.sse_history
        monotone &= all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
        beats &= partition_sse(feats, km.assignment, 16) <= partition_sse(feats, rd.assignment, 16)
    report(3, balanced and monotone and beats,
           f"balanced clustering: balance={balanced}, SSE non-increasing={monotone}, "
           f"beats random={beats} (5 seeds)")


def test_criterion_4_eta_sparsity_monotone(runs):
    tails = []
    for eta in (0.1, 1.0, 10.0):
        _, _, rows = runs.stage1(seed=0, eta=eta, lam=0.1, steps=S1_STEPS)
        tails.append(float(np.mean([r[2] for r in rows[-20:]])))
    ok = tails[0] + 0.02 <= tails[1] and tails[1] + 0.02 <= tails[2]
    report(4, ok, "eta->sparsity strictly increasing with margin 0.02: "
           + ", ".join(f"eta={e}: {s:.3f}" for e, s in zip((0.1, 1.0, 10.0), tails)))


def test_criterion_5_separability(runs):
    wins = val_windows(runs.corpus.val, SEQ, 16)
    masses = {}
    for lam in (0.0, 0.5):
        st, parts, _ = runs.stage1(seed=0, eta=0.1, lam=lam, steps=300)
        _, scores, _ = collect_decisions(runs.bundle(st, parts), wins, 0.5)
        masses[lam] = float(np.mean([near_tau_fraction(s, 0.5) for s in scores]))
    ok = masses[0.5] < masses[0.0] and masses[0.0] >= 2.0 * masses[0.5]
    report(5, ok, f"separability: near-tau mass lam=0: {masses[0.0]:.4f}, "
           f"lam=0.5: {masses[0.5]:.4f} (factor >= 2 required)")


def test_criterion_6_router_flops_share():
    cfg = ModelConfig(vocab_size=256, d_model=512, n_heads=8, n_layers=4, d_ffn=2048,
                      expert_size=32, ffn_kind="swiglu", max_seq_len=64).validate()
    rep = flops_per_token(cfg, mean_selected=cfg.n_experts // 2)
    err = abs(rep.router_share_of_ffn - 1.0 / 96.0)
    ok = err <= 1e-6 and abs(rep.router_share_of_ffn * 100 - 1.042) < 0.01
    report(6, ok, f"router FLOPs share swiglu/expert32: {rep.router_share_of_ffn:.8f} "
           f"= 1/96 within {err:.1e} (~1.04% of FFN FLOPs)")


def test_criterion_7_kernel_latency_direction():
    grid = (0.0, 0.25, 0.5, 0.75, 0.9)
    rep = bench(shapes=((1024, 4096),), batch_sizes=(1,), sparsity_grid=grid,
                expert_size=128, trials=40, warmups=5, seed=0)
    sparse = {r["sparsity"]: r["median_ns"] for r in rep.rows if r["path"] == "sparse"}
    dense = {r["sparsity"]: r["median_ns"] for r in rep.rows if r["path"] == "dense"}
    medians = [sparse[s] for s in grid]
    non_increasing = all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))
    ratio_50 = sparse[0.5] / dense[0.5]
    ratio_0 = sparse[0.0] / dense[0.0]
    ok = non_increasing and ratio_50 <= 0.85 and ratio_0 <= 1.3
    report(7, ok, "kernel latency decode d1024 f4096: medians(us) "
           + ", ".join(f"{s:.0%}={sparse[s] / 1000:.0f}" for s in grid)
           + f"; sparse/dense at 50% = {ratio_50:.2f} (<=0.85), at 0% = {ratio_0:.2f} (<=1.3)")


def test_criterion_8_union_sparsity_monotone(runs):
    st, parts = runs.moefied_state(seed=0, eta=1.0, lam=0.5, steps=1)
    wins = val_windows(runs.corpus.val, SEQ, 16)  # 16 x 64 = 1024 tokens
    _, _, masks = collect_decisions(runs.bundle(st, parts), wins, 0.5)
    ok = True
    for m in masks:
        assert m.shape[0] >= 1000
        cum = np.maximum.accumulate(m[:1000], axis=0).sum(axis=1)
        ok &= bool((np.diff(cum) >= 0).all())  # exact set-theoretic check
        series = prefix_union_sparsity(m[:1000])
        ok &= bool((np.diff(series) <= 0).all())
    report(8, ok, f"union sparsity non-increasing over 1000-token prefixes, "
           f"{len(masks)} layers, exact")


def test_criterion_9_stage2_contracts(runs):
    wins = val_windows(runs.corpus.val, SEQ, 12)
    frozen_ok, train_ok, improved = True, True, 0
    ppls = []
    for seed in (0, 1, 2):
        st, parts, _ = runs.stage1(seed=seed, eta=1.0, lam=0.5, steps=300)
        ce1, _, _ = collect_decisions(runs.bundle(st, parts), wins, 0.5)
        before = [r.Wg.data.tobytes() for r in st.routers]
        st.stage = "stage2"
        rows2 = run_training(st, runs.corpus.train, S2_STEPS)
        after = [r.Wg.data.tobytes() for r in st.routers]
        frozen_ok &= before == after
        train_ok &= rows2[-1][1].task < rows2[0][1].task
        ce2, _, _ = collect_decisions(runs.bundle(st, parts), wins, 0.5)
        improved += ce2 < ce1
        ppls.append((math.exp(ce1), math.exp(ce2)))
    ok = frozen_ok and train_ok and improved >= 2
    report(9, ok, f"stage-2: routers bit-frozen={frozen_ok}, step{S2_STEPS} loss < step 0: "
           f"{train_ok}, discrete ppl improved {improved}/3 seeds "
           + " ".join(f"[{a:.2f}->{b:.2f}]" for a, b in ppls))


def test_criterion_10_pipeline_determinism(tmp_path):
    corpus = tmp_path / "c.txt"
    make_synthetic_corpus(str(corpus), n_bytes=40_000, seed=5)

    def run(out, extra=()):
        args = ["--corpus", str(corpus), "--out-dir", str(out), "--seed", "3",
                "--set", "d_model=16", "--set", "n_layers=1", "--set", "d_ffn=16",
                "--set", "n_heads=2", "--set", "expert_size=4", "--set", "seq_len=32",
                "--set", "max_seq_len=64", "--set", "lr=0.003", "--set", "batch_size=4",
                "--set", "eval_windows=4", *extra]
        assert cli_main(["train-base", "--steps", "25", *args]) == 0
        assert cli_main(["moefy", "--checkpoint", str(out / "base.ckpt"), *args]) == 0
        assert cli_main(["train-lte", "--checkpoint", str(out / "moefied.ckpt"),
                         "--stage", "1", "--steps", "10", *args]) == 0
        assert cli_main(["train-lte", "--checkpoint", str(out / "stage1.ckpt"),
                         "--stage", "2", "--steps", "5", *args]) == 0
        assert cli_main(["eval", "--checkpoint", str(out / "stage2.ckpt"),
                         "--method", "lte", *args]) == 0
        assert cli_main(["report", "--checkpoint", str(out / "stage2.ckpt"), *args]) == 0

    files = ["base.ckpt", "moefied.ckpt", "stage1.ckpt", "stage2.ckpt",
             "train_base.log", "train_stage1.log", "train_stage2.log",
             "results.tsv", "report.txt", "sparsity_per_layer.svg", "score_histogram.svg"]
    # the default settings end stage 1 with every score below tau; the mixed run
    # keeps some experts selected, so stage 2 and eval exercise the gather path
    settings = {"default": (), "mixed": ("--set", "eta=0.3", "--set", "tau=0.47")}
    diffs, sparsity = [], {}
    for name, extra in settings.items():
        run(tmp_path / f"{name}1", extra)
        run(tmp_path / f"{name}2", extra)
        diffs += [f"{name}/{f}" for f in files
                  if (tmp_path / f"{name}1" / f).read_bytes()
                  != (tmp_path / f"{name}2" / f).read_bytes()]
        lines = (tmp_path / f"{name}1" / "report.txt").read_text().splitlines()
        sparsity[name] = next(float(l.split("\t")[1]) for l in lines
                              if l.startswith("overall_sparsity\t"))
    mixed_ok = 0.0 < sparsity["mixed"] < 1.0
    report(10, not diffs and mixed_ok,
           "pipeline determinism: all artifacts byte-identical"
           + ("" if not diffs else f"; differing: {diffs}")
           + "; overall sparsity " + ", ".join(f"{k}={v:.3f}" for k, v in sparsity.items())
           + " (mixed run must lie strictly inside (0, 1))")
