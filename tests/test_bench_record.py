"""`tools/bench_record.py`: the run order and the commands it starts, with no perfbench process."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
    return tmp_path


def test_runs_perfbench_unchanged_then_summarize(tmp_path, monkeypatch):
    src = fake_checkout(tmp_path)
    calls = []

    def fake_run(argv, cwd, check):
        # a perfbench run appends its record; summarize.py is only recorded
        calls.append(argv[1:])
        if argv[1] == "perfbench/run.py":
            with open(Path(cwd) / ".perfbench_work" / "records.jsonl", "a") as fh:
                fh.write(json.dumps({"run": argv[3], "seed": argv[5]}) + "\n")
        return subprocess.CompletedProcess(argv, 0)

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
        {"run": w, "seed": str(s)} for w, s in expected]



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
