"""End-to-end pipeline through the CLI at miniature scale."""

import builtins
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moefy.analysis import collect_decisions, evaluate, val_windows
from moefy.checkpoint import load_checkpoint
from moefy.cli import ORDER_WINDOWS, main
from moefy.config import load_corpus, make_synthetic_corpus
from moefy.model import D_FFN_AXIS, ffn_param_names
from moefy.numerics import blas_threads


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole pipeline once; individual tests inspect its artifacts."""
    root = tmp_path_factory.mktemp("pipe")
    corpus = root / "corpus.txt"
    make_synthetic_corpus(str(corpus), n_bytes=40_000, seed=5)
    out = root / "run"
    base_args = ["--corpus", str(corpus), "--out-dir", str(out), "--seed", "3",
                 "--set", "d_model=16", "--set", "n_layers=1", "--set", "d_ffn=16",
                 "--set", "n_heads=2", "--set", "expert_size=4", "--set", "seq_len=32",
                 "--set", "max_seq_len=64", "--set", "lr=0.003", "--set", "batch_size=4",
                 "--set", "eval_windows=4"]
    assert main(["train-base", "--steps", "30", *base_args]) == 0
    assert main(["moefy", "--checkpoint", str(out / "base.ckpt"), "--method", "kmeans",
                 *base_args]) == 0
    assert main(["train-lte", "--checkpoint", str(out / "moefied.ckpt"), "--stage", "1",
                 "--steps", "12", "--eta", "1.0", *base_args]) == 0
    assert main(["train-lte", "--checkpoint", str(out / "stage1.ckpt"), "--stage", "2",
                 "--steps", "6", *base_args]) == 0
    return {"root": root, "corpus": corpus, "out": out, "args": base_args}


class TestPipeline:
    def test_all_checkpoints_written(self, pipeline):
        out = pipeline["out"]
        for name in ("base.ckpt", "moefied.ckpt", "stage1.ckpt", "stage2.ckpt"):
            assert (out / name).exists(), name
        assert (out / "train_base.log").exists()
        assert (out / "train_stage1.log").exists()

    def test_moefy_preserves_dense_eval(self, pipeline):
        corpus = load_corpus(str(pipeline["corpus"]))
        wins = val_windows(corpus.val, 32, 4)
        base = load_checkpoint(str(pipeline["out"] / "base.ckpt"))
        moefied = load_checkpoint(str(pipeline["out"] / "moefied.ckpt"))
        a = evaluate(base, wins, "dense")
        b = evaluate(moefied, wins, "dense")
        assert abs(a.mean_ce - b.mean_ce) <= 1e-5

    def test_stage2_relabels_experts_in_selection_rate_order(self, pipeline, tmp_path):
        # 8 experts, and a stage 1 that keeps some of them selected
        args = [{str(pipeline["out"]): str(tmp_path),
                 "expert_size=4": "expert_size=2"}.get(a, a) for a in pipeline["args"]]
        args += ["--set", "tau=0.47"]
        assert main(["moefy", "--checkpoint", str(pipeline["out"] / "base.ckpt"), *args]) == 0
        assert main(["train-lte", "--checkpoint", str(tmp_path / "moefied.ckpt"), "--stage", "1",
                     "--steps", "12", "--eta", "0.3", *args]) == 0
        assert main(["train-lte", "--checkpoint", str(tmp_path / "stage1.ckpt"), "--stage", "2",
                     "--steps", "6", "--set", "checkpoint_every=6", *args]) == 0
        s1, trained, s2 = (load_checkpoint(str(tmp_path / name))
                           for name in ("stage1.ckpt", "stage2_step000006.ckpt", "stage2.ckpt"))
        es, moved = s2.config.expert_size, {}  # parameter name -> (d_ffn axis, unit order)
        for i, (p1, r1, p, r, p2, r2) in enumerate(zip(
                s1.partitions, s1.routers, trained.partitions, trained.routers,
                s2.partitions, s2.routers)):
            # the last step's checkpoint is stage 1's order; stage2.ckpt relabels it
            assert np.array_equal(p.permutation, p1.permutation)
            assert r.Wg.data.tobytes() == r1.Wg.data.tobytes()
            order = np.argsort(p1.permutation)[p2.permutation[::es]] // es
            assert sorted(order) == list(range(s2.config.n_experts))
            assert order.tolist() != sorted(order)
            assert r2.Wg.data.tobytes() == r1.Wg.data[:, order].tobytes()
            units = (order[:, None] * es + np.arange(es)).reshape(-1)
            assert np.array_equal(p2.permutation, p1.permutation[units])
            moved.update((name, (D_FFN_AXIS[role], units))
                         for role, name in ffn_param_names(s2.config, i).items()
                         if role in D_FFN_AXIS)
        for name in s2.params.names():
            want = trained.params[name].data
            if name in moved:
                want = np.take(want, moved[name][1], axis=moved[name][0])
            assert s2.params[name].data.tobytes() == want.tobytes(), name
        # rates over the windows that ordered them are non-increasing
        train = load_corpus(str(pipeline["corpus"])).train
        _, _, masks = collect_decisions(s2, val_windows(train, 32, ORDER_WINDOWS), 0.47)
        for m in masks:
            assert (np.diff(m.mean(axis=0)) <= 0).all() and 0 < m.mean() < 1

    def test_stage2_needs_one_training_window_to_order_experts(self, pipeline, tmp_path, capsys):
        short = tmp_path / "short.txt"
        short.write_bytes(bytes(range(97, 123)))  # a training split of under 33 bytes
        swap = {str(pipeline["out"]): str(tmp_path), str(pipeline["corpus"]): str(short)}
        args = [swap.get(a, a) for a in pipeline["args"]]
        assert main(["train-lte", "--checkpoint", str(pipeline["out"] / "stage1.ckpt"),
                     "--stage", "2", "--steps", "0", *args]) == 2
        assert "no window of seq_len + 1 = 33" in capsys.readouterr().err
        assert not (tmp_path / "stage2.ckpt").exists()

    def test_eval_methods_and_ledger(self, pipeline):
        out, args = pipeline["out"], pipeline["args"]
        ckpt = str(out / "stage2.ckpt")
        assert main(["eval", "--checkpoint", ckpt, "--method", "lte", *args]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--method", "lte", *args]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--method", "dense", *args]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--method", "dejavu",
                     "--keep-fraction", "1.0", *args]) == 0
        lines = (out / "results.tsv").read_text().strip().splitlines()
        assert lines[0].startswith("checkpoint\tmethod")
        records = lines[1:]
        assert len(records) == 4
        # identical eval twice -> identical records (including content hash)
        assert records[0] == records[1]
        # dejavu at keep_fraction 1 matches dense perplexity
        dense_ppl = float(records[2].split("\t")[3])
        dv_ppl = float(records[3].split("\t")[3])
        assert abs(dense_ppl - dv_ppl) / dense_ppl < 1e-5

    @pytest.mark.parametrize("method,flag", [
        ("lte", ["--k", "4"]),
        ("dense", ["--keep-fraction", "0.5"]),
        ("dejavu", ["--k", "2"]),
        ("moefication_gt", ["--keep-fraction", "0.5"]),
        ("dense", ["--tau", "0.3"]),
    ])
    def test_eval_rejects_flag_the_method_never_reads(self, pipeline, tmp_path, capsys,
                                                      method, flag):
        args = [a if a != str(pipeline["out"]) else str(tmp_path) for a in pipeline["args"]]
        assert main(["eval", "--checkpoint", str(pipeline["out"] / "stage2.ckpt"),
                     "--method", method, *flag, *args]) == 2
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "results.tsv").exists()

    def test_report_outputs(self, pipeline):
        out, args = pipeline["out"], pipeline["args"]
        assert main(["report", "--checkpoint", str(out / "stage2.ckpt"), *args]) == 0
        assert (out / "report.txt").exists()
        assert (out / "sparsity_per_layer.svg").exists()
        assert (out / "score_histogram.svg").exists()
        first = (out / "report.txt").read_bytes()
        assert main(["report", "--checkpoint", str(out / "stage2.ckpt"), *args]) == 0
        assert (out / "report.txt").read_bytes() == first

    def test_failed_report_write_keeps_previous_report(self, pipeline, tmp_path, monkeypatch):
        args = [a if a != str(pipeline["out"]) else str(tmp_path) for a in pipeline["args"]]
        argv = ["report", "--checkpoint", str(pipeline["out"] / "stage2.ckpt"), *args]
        assert main(argv) == 0
        before = (tmp_path / "report.txt").read_bytes()
        real_open = builtins.open

        class HalfWrite:
            """A file whose first write stores half its data, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("injected write failure")

        def failing_open(file, mode="r", *a, **kw):
            fh = real_open(file, mode, *a, **kw)
            return HalfWrite(fh) if "w" in mode and "report.txt" in Path(file).name else fh

        # Path.write_text opens through io.open, the builtin open is the same function
        monkeypatch.setattr(builtins, "open", failing_open)
        monkeypatch.setattr(io, "open", failing_open)
        with pytest.raises(OSError, match="injected"):
            main(argv)
        monkeypatch.undo()
        assert (tmp_path / "report.txt").read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_report_sparsity_consistent_with_eval(self, pipeline):
        out = pipeline["out"]
        corpus = load_corpus(str(pipeline["corpus"]))
        wins = val_windows(corpus.val, 32, 4)
        bundle = load_checkpoint(str(out / "stage2.ckpt"))
        from moefy.analysis import layer_sparsity_report

        rep = layer_sparsity_report(bundle, wins, 0.5)
        ev = evaluate(bundle, wins, "lte", tau=0.5)
        assert abs(rep.overall_sparsity - ev.mean_sparsity) < 1e-9


class TestConfigTakesEffect:
    def test_group_method_set_key_used_by_moefy(self, pipeline, tmp_path):
        from moefy.grouping import group_experts_random
        from moefy.numerics import Rng

        out = tmp_path / "grouped"
        args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
        assert main(["moefy", "--checkpoint", str(pipeline["out"] / "base.ckpt"),
                     "--set", "group_method=random", *args]) == 0
        bundle = load_checkpoint(str(out / "moefied.ckpt"))
        assert bundle.meta["group_method"] == "random"
        expect = group_experts_random(16, 4, Rng(3).split("group0"), layer_index=0)
        assert bundle.partitions[0].method == "random"
        assert np.array_equal(bundle.partitions[0].permutation, expect.permutation)

    def test_ledger_threads_is_what_forward_lm_ran(self, pipeline, tmp_path, monkeypatch):
        # BLAS takes its thread count from the environment at load; the ledger,
        # the report header and the checkpoint meta record that setting
        ckpt = str(pipeline["out"] / "stage2.ckpt")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        for blas, expect in (("1", "1"), (None, "default")):
            if blas is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
            out = tmp_path / expect
            args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
            assert main(["eval", "--checkpoint", ckpt, "--method", "lte", *args]) == 0
            assert main(["report", "--checkpoint", ckpt, *args]) == 0
            assert main(["train-base", "--steps", "0", *args]) == 0
            record = (out / "results.tsv").read_text().strip().splitlines()[-1]
            assert record.split("\t")[9] == expect
            assert f"\nthreads\t{expect}\n" in (out / "report.txt").read_text()
            assert load_checkpoint(str(out / "base.ckpt")).meta["threads"] == expect

    @pytest.mark.parametrize("flags,message", [
        *(pytest.param(["--set", f"{key}=0"], f"{key} must be positive", id=key)
          for key in ("d_model", "n_heads", "n_layers", "d_ffn", "expert_size", "max_seq_len",
                      "batch_size", "seq_len", "eval_windows")),
        pytest.param(["--set", "lr=-1"], "lr must be positive", id="lr"),
        pytest.param(["--steps", "-3"], "base_steps must be >= 0", id="steps"),
        pytest.param(["--set", "stage1_steps=-1"], "stage1_steps must be >= 0",
                     id="stage1_steps"),
        pytest.param(["--set", "stage2_steps=-1"], "stage2_steps must be >= 0",
                     id="stage2_steps"),
        pytest.param(["--set", "checkpoint_every=-1"], "checkpoint_every must be >= 0",
                     id="checkpoint_every"),
    ])
    def test_non_positive_size_exit_2_names_key(self, pipeline, tmp_path, capsys, flags,
                                                message):
        args = [a if a != str(pipeline["out"]) else str(tmp_path) for a in pipeline["args"]]
        assert main(["train-base", "--steps", "1", *args, *flags]) == 2
        assert message in capsys.readouterr().err


class TestModelKeysFromCheckpoint:
    CKPT = {"moefy": "base.ckpt", "train-lte": "stage1.ckpt", "eval": "stage2.ckpt",
            "report": "stage2.ckpt"}

    def command(self, pipeline, tmp_path, name):
        args = [a if a != str(pipeline["out"]) else str(tmp_path) for a in pipeline["args"]]
        extra = ["--stage", "2", "--steps", "1"] if name == "train-lte" else []
        return [name, "--checkpoint", str(pipeline["out"] / self.CKPT[name]), *extra, *args]

    @pytest.mark.parametrize("name", CKPT)
    @pytest.mark.parametrize("key,value", [("d_model", "96"), ("n_layers", "7"),
                                           ("d_ffn", "1024")])
    def test_differing_set_key_exit_2_names_key(self, pipeline, tmp_path, capsys, name, key,
                                                value):
        assert main([*self.command(pipeline, tmp_path, name), "--set", f"{key}={value}"]) == 2
        assert f"{key}={value} differs from the checkpoint's" in capsys.readouterr().err

    def test_config_file_keys_checked(self, pipeline, tmp_path, capsys):
        cmd = self.command(pipeline, tmp_path, "eval")
        conf = tmp_path / "run.conf"
        conf.write_text("d_model = 16\nffn_kind = two_matmul\n")  # the checkpoint's own
        assert main([*cmd, "--config", str(conf)]) == 0
        conf.write_text("ffn_kind = swiglu\n")
        assert main([*cmd, "--config", str(conf)]) == 2
        assert "ffn_kind=swiglu differs" in capsys.readouterr().err

    def test_moefy_takes_expert_size(self, pipeline, tmp_path):
        cmd = self.command(pipeline, tmp_path, "moefy")
        assert main([*cmd, "--set", "expert_size=8"]) == 0
        assert load_checkpoint(str(tmp_path / "moefied.ckpt")).config.n_experts == 2


class TestSwigluPipeline:
    def test_every_command_exits_0_and_kmeans_reads_gate(self, pipeline, tmp_path):
        from moefy.analysis import EVAL_METHODS
        from moefy.grouping import group_experts_kmeans
        from moefy.numerics import Rng

        out = tmp_path / "swiglu"
        args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
        args += ["--set", "ffn_kind=swiglu"]
        assert main(["train-base", "--steps", "10", *args]) == 0
        assert main(["moefy", "--checkpoint", str(out / "base.ckpt"), "--method", "kmeans",
                     *args]) == 0
        assert main(["train-lte", "--checkpoint", str(out / "moefied.ckpt"), "--stage", "1",
                     "--steps", "4", "--eta", "1.0", *args]) == 0
        assert main(["train-lte", "--checkpoint", str(out / "stage1.ckpt"), "--stage", "2",
                     "--steps", "2", *args]) == 0
        for method in EVAL_METHODS:
            assert main(["eval", "--checkpoint", str(out / "stage2.ckpt"), "--method", method,
                         *args]) == 0, method
        assert main(["report", "--checkpoint", str(out / "stage2.ckpt"), *args]) == 0

        base = load_checkpoint(str(out / "base.ckpt"))
        got = load_checkpoint(str(out / "moefied.ckpt")).partitions[0]
        gate, up = (group_experts_kmeans(base.params[f"block0.ffn.{w}"].data.T, 4,
                                         Rng(3).split("group0"), layer_index=0)
                    for w in ("Wgate", "Wup"))
        assert np.array_equal(got.assignment, gate.assignment)
        assert np.array_equal(got.permutation, gate.permutation)
        assert not np.array_equal(got.assignment, up.assignment)  # the check tells them apart

    @pytest.mark.parametrize("given", ("set", "config"))
    def test_train_base_rejects_an_activation_swiglu_never_runs(self, pipeline, tmp_path,
                                                                 capsys, given):
        args = [a if a != str(pipeline["out"]) else str(tmp_path) for a in pipeline["args"]]
        args += ["--set", "ffn_kind=swiglu"]
        conf = tmp_path / "run.conf"
        conf.write_text("activation = relu\n")
        extra = {"set": ["--set", "activation=relu"], "config": ["--config", str(conf)]}[given]
        assert main(["train-base", "--steps", "1", *args, *extra]) == 2
        assert "activation=relu" in capsys.readouterr().err
        assert not (tmp_path / "base.ckpt").exists()
        assert main(["train-base", "--steps", "1", *args, "--set", "activation=silu"]) == 0
        assert load_checkpoint(str(tmp_path / "base.ckpt")).config.activation == "silu"

    def test_swiglu_checkpoint_records_the_silu_it_runs(self, pipeline, tmp_path):
        from moefy.autograd import no_grad
        from moefy.checkpoint import save_checkpoint
        from moefy.model import forward_lm

        args = [a if a != str(pipeline["out"]) else str(tmp_path) for a in pipeline["args"]]
        args += ["--set", "ffn_kind=swiglu"]
        assert main(["train-base", "--steps", "1", *args]) == 0
        base = load_checkpoint(str(tmp_path / "base.ckpt"))
        assert base.config.activation == "silu"
        # the activation it runs is the one a later command may name
        assert main(["moefy", "--checkpoint", str(tmp_path / "base.ckpt"), *args,
                     "--set", "activation=silu"]) == 0
        # an older swiglu checkpoint recording the default gelu_tanh loads as the silu
        # it runs, so a later command may name silu for it too
        base.config.activation = "gelu_tanh"
        save_checkpoint(str(tmp_path / "old.ckpt"), base)
        old = load_checkpoint(str(tmp_path / "old.ckpt"))
        assert old.config.activation == "silu"
        assert main(["moefy", "--checkpoint", str(tmp_path / "old.ckpt"), *args,
                     "--set", "activation=silu"]) == 0
        tokens = np.arange(8)
        with no_grad():
            want = forward_lm(load_checkpoint(str(tmp_path / "base.ckpt")).params, tokens)
            got = forward_lm(old.params, tokens)
        assert np.array_equal(got.logits.data, want.logits.data)


class TestPeriodicCheckpoints:
    def test_checkpoint_every_writes_step_files(self, pipeline, tmp_path):
        out = tmp_path / "periodic"
        args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
        assert main(["train-base", "--steps", "5", "--set", "checkpoint_every=2", *args]) == 0
        for step in (2, 4):
            ck = out / f"base_step{step:06d}.ckpt"
            assert ck.exists()
            assert load_checkpoint(str(ck)).stage == "base"

    def test_stage_checkpoints_carry_the_runs_meta(self, pipeline, tmp_path):
        out = tmp_path / "periodic"
        args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
        assert main(["train-lte", "--checkpoint", str(pipeline["out"] / "moefied.ckpt"),
                     "--stage", "1", "--steps", "3", "--eta", "0.3", "--set", "lam=0.25",
                     "--set", "checkpoint_every=2", *args]) == 0
        step = load_checkpoint(str(out / "stage1_step000002.ckpt"))
        assert step.stage == "stage1"
        assert (step.meta["eta"], step.meta["lam"], step.meta["stage1_steps"]) == (0.3, 0.25, 3)
        assert step.meta == load_checkpoint(str(out / "stage1.ckpt")).meta


class TestLogs:
    def test_rerun_into_one_dir_leaves_one_log(self, pipeline, tmp_path):
        out = tmp_path / "twice"
        args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
        for _ in range(2):
            assert main(["train-base", "--steps", "3", *args]) == 0
        header, *rows = (out / "train_base.log").read_text().splitlines()
        assert header.startswith("step\t")
        assert [r.split("\t")[0] for r in rows] == ["1", "2", "3"]


class TestTrainBaseZeroSteps:
    def test_zero_steps_checkpoint_equals_init(self, pipeline, tmp_path):
        from moefy.model import ModelConfig, init_params
        from moefy.numerics import Rng

        out = tmp_path / "zero"
        args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
        assert main(["train-base", "--steps", "0", *args]) == 0
        ckpt = load_checkpoint(str(out / "base.ckpt"))
        cfg = ModelConfig(vocab_size=256, d_model=16, n_heads=2, n_layers=1, d_ffn=16,
                          expert_size=4, max_seq_len=64).validate()
        fresh = init_params(cfg, Rng(3).split("init"))
        for name in fresh.names():
            assert np.array_equal(ckpt.params[name].data, fresh[name].data)


class TestErrors:
    def test_stage_order_violation(self, pipeline):
        out, args = pipeline["out"], pipeline["args"]
        code = main(["train-lte", "--checkpoint", str(out / "base.ckpt"), "--stage", "1",
                     "--steps", "1", *args])
        assert code == 2
        code = main(["train-lte", "--checkpoint", str(out / "moefied.ckpt"), "--stage", "2",
                     "--steps", "1", *args])
        assert code == 2

    @pytest.mark.parametrize("flag", ("--eta", "--lam"))
    def test_stage2_rejects_objective_flags(self, pipeline, tmp_path, capsys, flag):
        args = [a if a != str(pipeline["out"]) else str(tmp_path) for a in pipeline["args"]]
        assert main(["train-lte", "--checkpoint", str(pipeline["out"] / "stage1.ckpt"),
                     "--stage", "2", "--steps", "1", flag, "0.3", *args]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "stage2.ckpt").exists()

    def test_stage2_meta_keeps_stage1_objective(self, pipeline, tmp_path, capsys):
        out = tmp_path / "eta"
        args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
        assert main(["train-lte", "--checkpoint", str(pipeline["out"] / "moefied.ckpt"),
                     "--stage", "1", "--steps", "1", "--eta", "0.3", *args]) == 0
        stage2 = ["train-lte", "--checkpoint", str(out / "stage1.ckpt"), "--stage", "2",
                  "--steps", "1", *args]
        # stage 2 keeps the objective its stage 1 recorded: a differing key is an error
        assert main([*stage2, "--set", "eta=5"]) == 2
        assert "eta=5.0 differs from the checkpoint's eta=0.3" in capsys.readouterr().err
        assert not (out / "stage2.ckpt").exists()
        assert main(stage2) == 0
        s1, s2 = (load_checkpoint(str(out / f"stage{n}.ckpt")).meta for n in (1, 2))
        assert s1["eta"] == 0.3
        assert (s2["eta"], s2["lam"]) == (s1["eta"], s1["lam"])
        assert main([*stage2, "--set", "eta=0.3", "--set", "lam=0.5"]) == 0

    @pytest.mark.parametrize("key", ("nonsense", "tie_embeddings", "vocab_size", "warmup_ratio",
                                     "weight_decay", "clip_norm"))
    @pytest.mark.parametrize("given", ("set", "config"))
    def test_unknown_config_key_exit_2(self, pipeline, tmp_path, capsys, given, key):
        args = [a if a != str(pipeline["out"]) else str(tmp_path) for a in pipeline["args"]]
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = 1\n")
        extra = {"set": ["--set", f"{key}=1"], "config": ["--config", str(conf)]}[given]
        assert main(["train-base", "--steps", "1", *args, *extra]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "base.ckpt").exists()

    @pytest.mark.parametrize("n_bytes", (0, -5, 1, 20))
    def test_make_corpus_rejects_a_size_load_corpus_rejects(self, tmp_path, capsys, n_bytes):
        path = tmp_path / "c.txt"
        assert main(["make-corpus", "--path", str(path), "--bytes", str(n_bytes)]) == 2
        assert f"--bytes {n_bytes}" in capsys.readouterr().err
        assert not path.exists()
        assert main(["make-corpus", "--path", str(path), "--bytes", "21"]) == 0
        assert load_corpus(str(path)).val.shape[0] == 2  # the smallest size it accepts

    def test_missing_corpus_exit_2(self, pipeline):
        assert main(["train-base", "--corpus", "/nonexistent.txt",
                     "--out-dir", str(pipeline["out"])]) == 2

    def test_directory_corpus_exit_2(self, pipeline, tmp_path, capsys):
        assert main(["train-base", "--corpus", str(tmp_path),
                     "--out-dir", str(pipeline["out"])]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_directory_checkpoint_exit_2(self, pipeline, tmp_path, capsys):
        args = pipeline["args"]
        assert main(["eval", "--checkpoint", str(tmp_path), "--method", "lte", *args]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_truncated_checkpoint_exit_2_names_file(self, pipeline, tmp_path, capsys):
        out, args = pipeline["out"], pipeline["args"]
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes((out / "stage2.ckpt").read_bytes()[:-100])
        assert main(["eval", "--checkpoint", str(bad), "--method", "lte", *args]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "reshape" not in err

    @staticmethod
    def rewrite_manifest(src, dst, edit):
        """Copy checkpoint `src` to `dst` with `edit` applied to its JSON manifest."""
        import json
        import struct

        raw = src.read_bytes()
        (mlen,) = struct.unpack("<Q", raw[4:12])
        manifest = json.loads(raw[12:12 + mlen].decode())
        edit(manifest)
        mbytes = json.dumps(manifest).encode()
        dst.write_bytes(raw[:4] + struct.pack("<Q", len(mbytes)) + mbytes + raw[12 + mlen:])

    def test_manifest_missing_key_exit_2(self, pipeline, tmp_path, capsys):
        out, args = pipeline["out"], pipeline["args"]
        bad = tmp_path / "nostage.ckpt"
        self.rewrite_manifest(out / "stage2.ckpt", bad, lambda m: m.pop("stage"))
        assert main(["eval", "--checkpoint", str(bad), "--method", "lte", *args]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "stage" in err

    def test_manifest_with_removed_config_key_exit_2(self, pipeline, tmp_path, capsys):
        out, args = pipeline["out"], pipeline["args"]
        bad = tmp_path / "tied.ckpt"
        self.rewrite_manifest(out / "stage2.ckpt", bad,
                              lambda m: m["config"].update(tie_embeddings=False))
        assert main(["eval", "--checkpoint", str(bad), "--method", "lte", *args]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "tie_embeddings" in err

    @pytest.mark.parametrize("key", ("n_heads", "expert_size"))
    def test_manifest_zero_size_exit_2(self, pipeline, tmp_path, capsys, key):
        out, args = pipeline["out"], pipeline["args"]
        bad = tmp_path / f"zero_{key}.ckpt"
        self.rewrite_manifest(out / "stage2.ckpt", bad, lambda m: m["config"].update({key: 0}))
        assert main(["eval", "--checkpoint", str(bad), "--method", "lte", *args]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and f"{key} must be positive" in err

    def test_bad_method_checkpoint_combo(self, pipeline):
        out, args = pipeline["out"], pipeline["args"]
        code = main(["eval", "--checkpoint", str(out / "base.ckpt"), "--method", "lte", *args])
        assert code == 2


class TestBenchCli:
    def test_bench_writes_table(self, tmp_path):
        out = tmp_path / "benchout"
        code = main(["bench", "--out-dir", str(out), "--grid", "0,50",
                     "--trials", "30", "--warmups", "5", "--set", "seed=1"])
        # uses the default pinned shapes; just verify structure quickly
        assert code == 0
        lines = (out / "bench.tsv").read_text().strip().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert rows[0].split("\t")[0] == "shape"
        assert {r.split("\t")[5] for r in rows[1:]} == {blas_threads()}
        assert len(rows) - 1 == 2 * 4 * 2  # grid x (2 shapes x 2 batch sizes) x 2 paths

    @pytest.mark.parametrize("flags,name", [
        (["--expert-size", "0"], "expert_size"),
        (["--expert-size", "-128"], "expert_size"),
        (["--expert-size", "100"], "expert_size"),
        (["--grid", "0,150"], "grid"),
        (["--grid=-10"], "grid"),
        (["--grid", "x"], "grid"),
    ])
    def test_bad_flag_exit_2_names_flag(self, tmp_path, capsys, flags, name):
        assert main(["bench", "--out-dir", str(tmp_path), *flags]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "bench.tsv").exists()


# After one `main` call, allocate and free a training step's tape several
# times: forty 1 MB arrays and one 4 MB array, each written. Prints the mean
# number of minor page faults per step once the heap has warmed up.
HEAP_PROBE = """
import resource, sys
import numpy as np
from moefy.cli import main
assert main(["make-corpus", "--path", sys.argv[1], "--bytes", "4096"]) == 0
def step():
    tape = [np.ones(1 << 18, np.float32) for _ in range(40)] + [np.ones(1 << 20, np.float32)]
    del tape
step(); step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc mallopt")
def test_main_keeps_freed_heap_mapped(tmp_path):
    # Under glibc's default thresholds each step faults about 10k pages back in
    # (the freed blocks are unmapped or trimmed); after `main` it reuses them.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    res = subprocess.run([sys.executable, "-c", HEAP_PROBE, str(tmp_path / "c.txt")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr[-4000:]
    assert float(res.stdout.split()[-1]) < 100
