"""Record a BENCH_<tag>.json at the repository root from end-to-end perfbench runs.

    python tools/bench_record.py --tag TAG [--src CHECKOUT]

Runs CHECKOUT's `perfbench/run.py` as it is (CHECKOUT defaults to this
repository) with `--trace 0` and the `run_seconds` of CHECKOUT's
BENCHMARK.json, for seeds 600, 601 and 602 per workload of that file.
CHECKOUT must be a git checkout (a `git worktree add` of the commit to
measure), so that each record names its commit. The runs go seed by seed,
each seed through every workload once, so no workload runs twice in a row
and a process that starts on a slow BLAS plateau costs one workload one
seed. Then CHECKOUT's `perfbench/summarize.py --min-seed 600
--baseline-out BENCH_TAG.json`, reading only the records these runs appended,
writes the median, quartiles and spread of every metric. This script computes
no statistics of its own: it then adds to each metric of that entry its raw
`values`, one per seed of the workload's `seeds` list, read from the same
records (summarize.py's `record_figures` names the `record.` figures).

Run nothing else on the machine meanwhile: each run takes `run_seconds` plus
its set-up, and the figures are wall times.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(600, 603)


def run_order(workloads: list[str], seeds: list[int]) -> list[tuple[str, int]]:
    """(workload, seed) pairs, seed by seed; with two or more workloads none runs twice in a row."""
    return [(w, s) for s in seeds for w in workloads]


def add_seed_values(bench: Path, records: list[dict], record_figures) -> None:
    """Add raw per-seed `values` to every metric of the last entry in `bench`.

    `values[i]` is what the run of seed `seeds[i]` reported, or None where
    that run reported no such metric.
    """
    doc = json.loads(bench.read_text())
    entry = doc["entries"][-1]
    for workload, row in entry["workloads"].items():
        if len(set(row["seeds"])) != len(row["seeds"]):
            raise ValueError(f"{workload}: repeated seeds {row['seeds']}")
        runs = {}
        for rec in records:
            meta = rec["meta"]
            if meta["workload"] == workload and meta["source_sha256"] == entry["source_sha256"]:
                if meta["seed"] in runs:
                    raise ValueError(f"{workload}: two runs of seed {meta['seed']}")
                runs[meta["seed"]] = {name: m["value"] for name, m in rec["result"]["metrics"].items()}
                runs[meta["seed"]].update({"record." + label.split(" ")[0]: v
                                           for label, v in record_figures(meta).items()})
        for name, m in row["metrics"].items():
            m["values"] = [runs[seed].get(name) for seed in row["seeds"]]
    bench.write_text(json.dumps(doc, indent=1) + "\n")


def is_checkout(src: Path, tool: str) -> bool:
    """Whether `src` is a git checkout; if not, say how to make one."""
    if (src / ".git").exists():
        return True
    # perfbench records the checkout's commit; a plain copy records "unknown"
    print(f"{tool}: {src} has no .git; make a checkout of the commit to measure "
          f"with `git worktree add DIR COMMIT`", file=sys.stderr)
    return False


def run_perfbench(src: Path, workload: str, seed: int, seconds) -> str:
    """Run `src`'s perfbench once, untraced, and return the record line it appended."""
    records = src / ".perfbench_work" / "records.jsonl"
    start = len(records.read_text().splitlines()) if records.exists() else 0
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=src, check=True)
    new = records.read_text().splitlines()[start:]
    if len(new) != 1:
        raise RuntimeError(f"perfbench appended {len(new)} records to {records}, not one")
    return new[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    ap.add_argument("--src", type=Path, default=ROOT, help="repository root to benchmark")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if not is_checkout(src, "bench_record"):
        return 2
    bench = json.loads((src / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    lines = []
    for workload, seed in run_order(workloads, list(SEEDS)):
        print(f"bench_record: {workload} seed {seed}", file=sys.stderr, flush=True)
        lines.append(run_perfbench(src, workload, seed, bench["run_seconds"]))

    # summarize.py groups every record it reads; give it only this recording's runs
    ours = src / ".perfbench_work" / f"bench_{args.tag}.jsonl"
    ours.write_text("".join(line + "\n" for line in lines))
    bench_file = ROOT / f"BENCH_{args.tag}.json"
    subprocess.run([sys.executable, "perfbench/summarize.py", "--records", str(ours),
                    "--min-seed", str(SEEDS[0]), "--baseline-out", str(bench_file)],
                   cwd=src, check=True)
    spec = importlib.util.spec_from_file_location("summarize", src / "perfbench" / "summarize.py")
    summarize = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(summarize)
    add_seed_values(bench_file, [json.loads(line) for line in ours.read_text().splitlines()],
                    summarize.record_figures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
