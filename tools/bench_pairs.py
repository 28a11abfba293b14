"""Run alternating parent/change perfbench pairs and apply the pair rule.

    python tools/bench_pairs.py PARENT CHANGE --seeds S [S ...] [--workloads W [W ...]]

PARENT and CHANGE are git checkouts of the two commits (`bench_record.py`
says how to make one), holding the same BENCHMARK.json and perfbench/. Pair
i uses seed `seeds[i]`: each workload (default: all of BENCHMARK.json's)
runs once on each side, untraced and for the benchmark's `run_seconds`,
through `bench_record.run_perfbench`; the parent runs first on even pairs,
the change on odd ones.

After every pair the script writes PAIRS_<parent>_<change>.json at the
repository root, named by the first 7 characters of each side's commit. It
holds every run's end-to-end metrics and, per workload and metric (with the
metric's `better` direction and `bound` from BENCHMARK.json):

- `wins`, `losses`, `ties`: pairs in which the change reads better, worse or
  the same;
- both medians and the parent's quartiles (`statistics.quantiles`, n=4, as
  perfbench/summarize.py computes them);
- `pair_rule`: "met" when the change wins at least nine tenths of the pairs
  and its median beats the parent's by more than the parent's q3 - q1;
- `within_bound`: the change's median is not worse than the parent's by more
  than `bound` times the parent's median.

Run nothing else on the machine meanwhile: the figures are wall times and
peak RSS.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import bench_record

ROOT = Path(__file__).resolve().parent.parent


def bench_files(src: Path) -> dict[str, bytes]:
    """BENCHMARK.json and every perfbench/ file of a checkout, by relative path."""
    paths = [src / "BENCHMARK.json"] + sorted(
        p for p in (src / "perfbench").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    return {p.relative_to(src).as_posix(): p.read_bytes() for p in paths}


def pair_stats(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """The pair rule over (parent, change) values of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
    mp, mc = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    gain = sign * (mc - mp)
    return {"pairs": len(pairs), "wins": wins, "losses": losses,
            "ties": len(pairs) - wins - losses, "parent_median": mp, "change_median": mc,
            "parent_q1": q1, "parent_q3": q3,
            "pair_rule": "met" if wins >= 0.9 * len(pairs) and gain > q3 - q1 else "not met",
            "within_bound": gain >= -bound * abs(mp)}


def summarise(runs: list[dict], spec: dict) -> dict:
    """Per workload, the pair statistics of every end-to-end metric in `spec`."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        ours = [r for r in runs if r["workload"] == workload]
        out[workload] = {
            name: {"better": m["better"], "bound": m["bound"], **pair_stats(
                [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in ours],
                m["better"], m["bound"])}
            for name, m in spec.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one seed per pair")
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    args = ap.parse_args(argv)
    src = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(set(args.seeds)) != len(args.seeds):
        print(f"bench_pairs: repeated seeds in {args.seeds}", file=sys.stderr)
        return 2
    if not all(bench_record.is_checkout(s, "bench_pairs") for s in src.values()):
        return 2
    if bench_files(src["parent"]) != bench_files(src["change"]):
        print("bench_pairs: the checkouts differ in BENCHMARK.json or perfbench/",
              file=sys.stderr)
        return 2
    bench = json.loads((src["parent"] / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    runs: list[dict] = []
    sides: dict = {}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            run = {"pair": i, "workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                print(f"bench_pairs: pair {i} {workload} seed {seed} {side}", file=sys.stderr,
                      flush=True)
                rec = json.loads(bench_record.run_perfbench(src[side], workload, seed,
                                                            bench["run_seconds"]))
                meta = rec["meta"]
                sides.setdefault(side, {"src": str(src[side]), "git_commit": meta["git_commit"],
                                        "source_sha256": meta["source_sha256"]})
                run[side] = {"failed": rec["result"]["failed"],
                             "metrics": {n: m["value"] for n, m in rec["result"]["metrics"].items()}}
            runs.append(run)
        out = ROOT / (f"PAIRS_{sides['parent']['git_commit'][:7]}_"
                      f"{sides['change']['git_commit'][:7]}.json")
        summary = summarise(runs, spec)
        out.write_text(json.dumps({"seconds": bench["run_seconds"], "seeds": args.seeds[:i + 1],
                                   **sides, "summary": summary, "runs": runs}, indent=1) + "\n")

    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload} {name}: {s['wins']}/{s['pairs']} wins, parent "
                  f"{s['parent_median']:.4g} [{s['parent_q1']:.4g}, {s['parent_q3']:.4g}], "
                  f"change {s['change_median']:.4g}, pair rule {s['pair_rule']}"
                  f"{'' if s['within_bound'] else ', WORSE than its bound'}")
    print(f"bench_pairs: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
