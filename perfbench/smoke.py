"""Smoke test of the benchmark itself, at a tiny model size (about a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, runs run.py --size tiny with tracing
off and on, and checks that:
  - the last stdout line is the result object with exactly its four keys,
    no failed operation, and every metric of BENCHMARK.json with its unit;
  - span self-times are non-negative and traced children never sum to more
    than their parent;
  - a traced function missing from the program is reported absent, not fatal;
  - a directory without the program makes run.py fail without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
EPS = 1e-9

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_spans(spans: list, tag: str) -> None:
    total = defaultdict(float)
    children = defaultdict(float)
    for s in spans:
        total[(s["phase"], s["name"])] += s["total_s"]
        children[(s["phase"], s["parent"])] += s["total_s"]
    negative = [s for s in spans if s["self_s"] < -EPS]
    expect(not negative, f"{tag}: span self-times are non-negative")
    over = [k for k, c in children.items() if k[1] != "-" and c > total[k] + EPS]
    expect(not over, f"{tag}: traced children never exceed their parent {over or ''}")


def check_workload(spec: dict, workload: str) -> None:
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        tag = f"{workload} --trace {trace}"
        proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
        expect(proc.returncode == 0, f"{tag}: exits 0 {proc.stderr[-500:] if proc.returncode else ''}")
        if proc.returncode != 0:
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{tag}: result has exactly the keys correct, attempted, failed, metrics")
        expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
               f"{tag}: correct, no failed operation ({result['failed']} of {result['attempted']})")
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"{tag}: every {group} metric with its unit "
                            f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
        finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                     for v in result["metrics"].values())
        expect(finite, f"{tag}: every value is a finite number")
        if trace == "1":
            record = json.loads((WORK / "records.jsonl").read_text().splitlines()[-1])
            check_spans(record["spans"], tag)


def check_absent_target() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import tracer as tracing
    import workloads

    t = tracing.Tracer(targets=tracing.TARGETS + (("numerics", "deleted_function"),))
    with t:
        pass
    expect(t.absent == ["numerics.deleted_function"], "a missing target is skipped and listed")
    t.absent.append("numerics.matmul")  # as if a later commit deleted it
    r = workloads.Run(work=WORK, seed=0, size=workloads.TINY, trace=True, tracer=t)
    metrics, absent = run.per_layer_metrics(r, t, 4)
    gone = [m for m in metrics if ".numerics.matmul." in m]
    expect(not gone and "base.numerics.matmul.ms" in absent,
           "metrics of an absent target are reported absent")


def check_without_program() -> None:
    WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        no_result = not any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and no_result, "without the program: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        check_workload(spec, w["name"])
    check_absent_target()
    check_without_program()
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
