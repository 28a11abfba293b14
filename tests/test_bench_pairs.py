"""`tools/bench_pairs.py`: the run order and the pair rule, over fake perfbench runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(700, 710))


def fake_checkout(path: Path, commit: str) -> Path:
    path.mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps({**BENCH, "run_seconds": 5}))
    (path / ".git").write_text("gitdir: elsewhere\n")
    (path / "perfbench").mkdir()
    (path / "perfbench" / "run.py").write_text("# the same benchmark on both sides\n")
    (path / "commit").write_text(commit)
    return path


def fake_metrics(side: str, seed: int) -> dict:
    """The change uses 6 MB less memory in every pair, is faster in 8 of 10
    (seeds 700 and 701 lose), takes twice the set-up time, and gives the
    same dense speed and loss."""
    i = seed - SEEDS[0]
    change = side == "change"
    return {"peak_rss_mb": 90.0 + 0.1 * (i % 3) - 6.0 * change,
            "lte_tok_s": 6000.0 + 10 * i + (-50.0 if i < 2 else 500.0) * change,
            "setup_s": 3.0 * (1 + change),
            "dense_tok_s": 6000.0 + i, "lte_loss": 3.5}


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    parent = fake_checkout(tmp_path / "parent", "aaaaaaa111")
    change = fake_checkout(tmp_path / "change", "bbbbbbb222")
    calls = []

    def fake_run(argv, cwd, check):
        # a perfbench run appends its record, as perfbench/run.py does
        cwd = Path(cwd)
        side, seed = cwd.name, int(argv[5])
        calls.append((side, argv[3], seed, argv[1:]))
        meta = {"workload": argv[3], "seed": seed, "git_commit": (cwd / "commit").read_text(),
                "source_sha256": side}
        metrics = {n: {"value": v, "unit": "u"} for n, v in fake_metrics(side, seed).items()}
        (cwd / ".perfbench_work").mkdir(exist_ok=True)
        with open(cwd / ".perfbench_work" / "records.jsonl", "a") as fh:
            fh.write(json.dumps({"meta": meta, "result": {"failed": 0, "metrics": metrics}}) + "\n")

    monkeypatch.setattr(bench_pairs.bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    return parent, change, calls


def test_pairs_alternate_and_give_the_pair_rule(checkouts, tmp_path):
    parent, change, calls = checkouts
    argv = [str(parent), str(change), "--seeds", *map(str, SEEDS), "--workloads", "train", "eval"]
    assert bench_pairs.main(argv) == 0
    expected = [(side, w, s) for i, s in enumerate(SEEDS) for w in ("train", "eval")
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    assert [c[:3] for c in calls] == expected
    assert all(c[3] == ["perfbench/run.py", "--workload", c[1], "--seed", str(c[2]),
                        "--seconds", "5", "--trace", "0"] for c in calls)

    doc = json.loads((tmp_path / "PAIRS_aaaaaaa_bbbbbbb.json").read_text())
    assert doc["seeds"] == SEEDS and doc["parent"]["git_commit"] == "aaaaaaa111"
    assert len(doc["runs"]) == 20
    assert doc["runs"][1]["first"] == "parent" and doc["runs"][2]["first"] == "change"
    assert doc["runs"][0]["change"]["metrics"] == fake_metrics("change", 700)
    for workload in ("train", "eval"):
        s = doc["summary"][workload]
        rss = s["peak_rss_mb"]
        assert (rss["wins"], rss["losses"], rss["ties"]) == (10, 0, 0)
        assert rss["parent_median"] == pytest.approx(90.1) and rss["change_median"] == pytest.approx(84.1)
        assert rss["pair_rule"] == "met" and rss["within_bound"]
        assert (s["lte_tok_s"]["wins"], s["lte_tok_s"]["pair_rule"]) == (8, "not met")
        assert s["lte_tok_s"]["within_bound"]
        assert (s["lte_loss"]["ties"], s["lte_loss"]["pair_rule"]) == (10, "not met")
        assert s["setup_s"]["losses"] == 10 and not s["setup_s"]["within_bound"]


def test_pair_rule_needs_a_gain_beyond_the_parent_spread():
    # ten wins, but a median gain of 1 inside the parent's quartile spread of 5
    pairs = [(100.0 + 5 * (i % 2), 101.0 + 5 * (i % 2)) for i in range(10)]
    s = bench_pairs.pair_stats(pairs, "higher", 0.25)
    assert s["wins"] == 10 and s["parent_q3"] - s["parent_q1"] == 5.0
    assert s["pair_rule"] == "not met"
    assert bench_pairs.pair_stats(pairs, "lower", 0.25)["losses"] == 10


@pytest.mark.parametrize("seeds", [["700", "700"], ["700", "701", "700"]])
def test_repeated_seed_refused_before_any_run(checkouts, seeds, capsys):
    parent, change, calls = checkouts
    assert bench_pairs.main([str(parent), str(change), "--seeds", *seeds]) == 2
    assert calls == [] and "repeated seeds" in capsys.readouterr().err


def test_different_benchmarks_refused_before_any_run(checkouts, capsys):
    parent, change, calls = checkouts
    (change / "perfbench" / "run.py").write_text("# an edited benchmark\n")
    assert bench_pairs.main([str(parent), str(change), "--seeds", "700"]) == 2
    assert calls == [] and "differ" in capsys.readouterr().err
