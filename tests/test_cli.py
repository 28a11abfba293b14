"""End-to-end pipeline through the CLI at miniature scale."""

import numpy as np
import pytest

from moefy.analysis import evaluate, val_windows
from moefy.checkpoint import load_checkpoint
from moefy.cli import main
from moefy.config import load_corpus, make_synthetic_corpus


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

    def test_stage2_routers_match_stage1(self, pipeline):
        s1 = load_checkpoint(str(pipeline["out"] / "stage1.ckpt"))
        s2 = load_checkpoint(str(pipeline["out"] / "stage2.ckpt"))
        for r1, r2 in zip(s1.routers, s2.routers):
            assert np.array_equal(r1.Wg.data, r2.Wg.data)

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

    def test_report_outputs(self, pipeline):
        out, args = pipeline["out"], pipeline["args"]
        assert main(["report", "--checkpoint", str(out / "stage2.ckpt"), *args]) == 0
        assert (out / "report.txt").exists()
        assert (out / "sparsity_per_layer.svg").exists()
        assert (out / "score_histogram.svg").exists()
        first = (out / "report.txt").read_bytes()
        assert main(["report", "--checkpoint", str(out / "stage2.ckpt"), *args]) == 0
        assert (out / "report.txt").read_bytes() == first

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
        import moefy.analysis as analysis

        seen = []
        real = analysis.forward_lm

        def spy(*a, **kw):
            seen.append(kw.get("threads", 1))
            return real(*a, **kw)

        monkeypatch.setattr(analysis, "forward_lm", spy)
        monkeypatch.setenv("MOEFY_THREADS", "2")
        out = tmp_path / "threads"
        args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
        ckpt = str(pipeline["out"] / "stage2.ckpt")
        for method in ("lte", "dense"):
            seen.clear()
            assert main(["eval", "--checkpoint", ckpt, "--method", method, *args]) == 0
            record = (out / "results.tsv").read_text().strip().splitlines()[-1]
            assert seen and set(seen) == {int(record.split("\t")[9])} == {2}


class TestPeriodicCheckpoints:
    def test_checkpoint_every_writes_step_files(self, pipeline, tmp_path):
        out = tmp_path / "periodic"
        args = [a if a != str(pipeline["out"]) else str(out) for a in pipeline["args"]]
        assert main(["train-base", "--steps", "5", "--set", "checkpoint_every=2", *args]) == 0
        for step in (2, 4):
            ck = out / f"base_step{step:06d}.ckpt"
            assert ck.exists()
            assert load_checkpoint(str(ck)).stage == "base"


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

    def test_unknown_config_key_exit_2(self, pipeline):
        args = pipeline["args"] + ["--set", "nonsense=1"]
        assert main(["train-base", "--steps", "1", *args]) == 2

    def test_missing_corpus_exit_2(self, pipeline):
        assert main(["train-base", "--corpus", "/nonexistent.txt",
                     "--out-dir", str(pipeline["out"])]) == 2

    def test_truncated_checkpoint_exit_2_names_file(self, pipeline, tmp_path, capsys):
        out, args = pipeline["out"], pipeline["args"]
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes((out / "stage2.ckpt").read_bytes()[:-100])
        assert main(["eval", "--checkpoint", str(bad), "--method", "lte", *args]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "reshape" not in err

    def test_manifest_missing_key_exit_2(self, pipeline, tmp_path, capsys):
        import json
        import struct

        out, args = pipeline["out"], pipeline["args"]
        raw = (out / "stage2.ckpt").read_bytes()
        (mlen,) = struct.unpack("<Q", raw[4:12])
        manifest = json.loads(raw[12:12 + mlen].decode())
        del manifest["stage"]
        mbytes = json.dumps(manifest).encode()
        bad = tmp_path / "nostage.ckpt"
        bad.write_bytes(raw[:4] + struct.pack("<Q", len(mbytes)) + mbytes + raw[12 + mlen:])
        assert main(["eval", "--checkpoint", str(bad), "--method", "lte", *args]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "stage" in err

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
        assert len(rows) - 1 == 2 * 4 * 2  # grid x (2 shapes x 2 batch sizes) x 2 paths
