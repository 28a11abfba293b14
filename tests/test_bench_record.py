"""`tools/bench_record.py`: the run order and the commands it starts, with no perfbench process."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_run_order_alternates_workloads():
    order = bench_record.run_order(WORKLOADS, [600, 601, 602])
    assert sorted(order) == sorted((w, s) for w in WORKLOADS for s in (600, 601, 602))
    assert all(a[0] != b[0] for a, b in zip(order, order[1:]))


def fake_checkout(tmp_path: Path) -> Path:
    # the checkout's own BENCHMARK.json sets the run length; 5 s tells it from the repository's
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({**bench, "run_seconds": 5}))
    (tmp_path / ".git").write_text("gitdir: elsewhere\n")  # what `git worktree add` leaves
    (tmp_path / ".perfbench_work").mkdir()
    (tmp_path / ".perfbench_work" / "records.jsonl").write_text('{"older": "run"}\n')
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "perfbench" / "summarize.py", tmp_path / "perfbench")
    return tmp_path


def fake_record(workload: str, seed: int) -> dict:
    """A record as perfbench/run.py appends it, with one metric and one record figure."""
    meta = {"workload": workload, "seed": seed, "trace": 0, "size": "full",
            "source_sha256": "d1", "git_commit": "c1", "python": "3", "numpy": "2", "blas": "b",
            "nproc": 2, "env": {}, "model": {}, "stage1_eta": 0.05, "checkpoint": {},
            "seconds": 5.0, "host_slowdown": seed / 100}
    return {"meta": meta, "result": {"failed": 0, "metrics": {
        "lte_tok_s": {"value": float(seed + len(workload)), "unit": "tok/s"}}}}


def test_runs_perfbench_unchanged_then_summarize(tmp_path, monkeypatch):
    src = fake_checkout(tmp_path)
    (tmp_path / "out").mkdir()
    calls = []
    real_run = subprocess.run

    def fake_run(argv, cwd, check):
        # a perfbench run appends its record; summarize.py runs as it is
        calls.append(argv[1:])
        if argv[1] == "perfbench/run.py":
            with open(Path(cwd) / ".perfbench_work" / "records.jsonl", "a") as fh:
                fh.write(json.dumps(fake_record(argv[3], int(argv[5]))) + "\n")
            return subprocess.CompletedProcess(argv, 0)
        return real_run(argv, cwd=cwd, check=check, capture_output=True)

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path / "out")
    assert bench_record.main(["--tag", "t", "--src", str(src)]) == 0
    runs, summarize = calls[:-1], calls[-1]
    expected = bench_record.run_order(WORKLOADS, [600, 601, 602])
    assert runs == [["perfbench/run.py", "--workload", w, "--seed", str(s), "--seconds", "5",
                     "--trace", "0"] for w, s in expected]
    ours = src / ".perfbench_work" / "bench_t.jsonl"
    assert summarize == ["perfbench/summarize.py", "--records", str(ours), "--min-seed", "600",
                         "--baseline-out", str(tmp_path / "out" / "BENCH_t.json")]
    # the older record stays out of this recording's summary
    assert [json.loads(line) for line in ours.read_text().splitlines()] == [
        fake_record(w, s) for w, s in expected]
    # summarize.py's statistics, plus each run's own value in seed order
    [entry] = json.loads((tmp_path / "out" / "BENCH_t.json").read_text())["entries"]
    for w in WORKLOADS:
        row = entry["workloads"][w]
        assert row["seeds"] == [600, 601, 602]
        tok_s = row["metrics"]["lte_tok_s"]
        assert tok_s["median"] == 601 + len(w)
        assert tok_s["values"] == [600.0 + len(w), 601.0 + len(w), 602.0 + len(w)]
        assert row["metrics"]["record.host_slowdown"]["values"] == [6.0, 6.01, 6.02]


def test_seed_values_follow_the_entry_seeds(tmp_path):
    # a run missing a metric gives None in its place, and other digests are ignored
    records = [fake_record("eval", 601), fake_record("eval", 600), fake_record("eval", 602)]
    del records[0]["result"]["metrics"]["lte_tok_s"]
    other = fake_record("eval", 600)
    other["meta"]["source_sha256"] = "d0"
    bench = tmp_path / "BENCH_t.json"
    entry = {"source_sha256": "d1", "workloads": {"eval": {"seeds": [600, 601, 602], "metrics": {
        "lte_tok_s": {"median": 1.0}, "record.host_slowdown": {"median": 6.01}}}}}
    bench.write_text(json.dumps({"entries": [{"older": "entry"}, entry]}))
    bench_record.add_seed_values(bench, [other] + records, lambda meta: {
        "host_slowdown ratio": meta["host_slowdown"]})
    older, got = json.loads(bench.read_text())["entries"]
    assert older == {"older": "entry"}
    metrics = got["workloads"]["eval"]["metrics"]
    assert metrics["lte_tok_s"] == {"median": 1.0, "values": [604.0, None, 606.0]}
    assert metrics["record.host_slowdown"]["values"] == [6.0, 6.01, 6.02]


@pytest.mark.parametrize("seeds, runs", [([600, 600], [600]), ([600, 601], [600, 601, 600])])
def test_repeated_seed_rejected(tmp_path, seeds, runs):
    # keyed by seed, a second run of one seed would overwrite the first
    bench = tmp_path / "BENCH_t.json"
    entry = {"source_sha256": "d1", "workloads": {"eval": {"seeds": seeds, "metrics": {}}}}
    bench.write_text(json.dumps({"entries": [entry]}))
    with pytest.raises(ValueError, match="seed"):
        bench_record.add_seed_values(bench, [fake_record("eval", s) for s in runs], lambda meta: {})
    assert json.loads(bench.read_text()) == {"entries": [entry]}


def test_checkout_without_git_rejected_before_any_run(tmp_path, monkeypatch, capsys):
    # a plain copy would record git_commit "unknown" in every run
    src = fake_checkout(tmp_path)
    (src / ".git").unlink()
    calls = []
    monkeypatch.setattr(bench_record.subprocess, "run", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(bench_record, "ROOT", tmp_path / "out")
    assert bench_record.main(["--tag", "t", "--src", str(src)]) != 0
    assert calls == []
    assert "git worktree add" in capsys.readouterr().err
    assert not (src / ".perfbench_work" / "bench_t.jsonl").exists()
