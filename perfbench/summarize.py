"""Summarise benchmark records: median, quartiles and spread per workload and metric.

    python3 perfbench/summarize.py [--records PATH] [--baseline-out PATH]

Reads the records run.py appends to .perfbench_work/records.jsonl, keeps the
full-size end-to-end runs (--trace 0), groups them by source digest and
workload, and prints for each metric the median, the first and third
quartile (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
With --baseline-out, the summary of the most recent source digest is
appended as one entry to that JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    """CPU model of this host, for a baseline entry written where the runs were made."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def record_figures(meta: dict) -> dict:
    """Figures a record holds besides the metrics, keyed as 'name unit'."""
    out = {}
    for stage, v in meta.get("train_tok_s", {}).items():
        out[f"train_{stage}_tok_s tok/s"] = v
    for path, v in meta.get("decode_ms", {}).items():
        out[f"decode_{path}_ms_p50 ms"] = v["p50"]
        out[f"decode_{path}_ms_p90 ms"] = v["p90"]
    for key, unit in (("lte_ppl", "ppl"), ("kept_fraction", "ratio"),
                      ("host_slowdown", "ratio")):
        if key in meta:
            out[f"{key} {unit}"] = meta[key]
    return out


def summarise(records: list[dict]) -> dict:
    groups: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(list)
    failed: dict = defaultdict(int)
    for rec in records:
        meta, result = rec["meta"], rec["result"]
        key = (meta["source_sha256"], meta["workload"])
        seeds[key].append(meta["seed"])
        failed[key] += result["failed"]
        for name, m in result["metrics"].items():
            groups[key][name].append((m["value"], m["unit"]))
        for label, value in record_figures(meta).items():
            name, unit = label.split(" ")
            groups[key]["record." + name].append((value, unit))
    out: dict = defaultdict(dict)
    for (digest, workload), metrics in groups.items():
        row = {"runs": len(seeds[(digest, workload)]), "seeds": seeds[(digest, workload)],
               "failed": failed[(digest, workload)], "metrics": {}}
        for name, vals in metrics.items():
            xs = [v for v, _ in vals]
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            row["metrics"][name] = {"unit": vals[0][1], "median": statistics.median(xs),
                                    "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        out[digest][workload] = row
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--records", default=str(ROOT / ".perfbench_work" / "records.jsonl"))
    ap.add_argument("--min-seed", type=int, default=0, help="ignore runs with smaller seeds")
    ap.add_argument("--baseline-out", help="append the latest digest's summary here")
    args = ap.parse_args()
    records = []
    for line in Path(args.records).read_text().splitlines():
        rec = json.loads(line)
        meta = rec["meta"]
        if meta["trace"] == 0 and meta["size"] == "full" and meta["seed"] >= args.min_seed:
            records.append(rec)
    summary = summarise(records)
    for digest, workloads in summary.items():
        for workload, row in workloads.items():
            print(f"{digest} {workload}: {row['runs']} runs, {row['failed']} failed operations")
            for name, m in row["metrics"].items():
                print(f"  {name:28s} median {m['median']:12.4f} {m['unit']:6s} "
                      f"q1 {m['q1']:12.4f} q3 {m['q3']:12.4f} spread {m['spread']:.3f}")
    if args.baseline_out and records:
        last = records[-1]["meta"]
        entry = {key: last[key] for key in ("git_commit", "source_sha256", "python", "numpy",
                                            "blas", "nproc", "env", "model", "stage1_eta",
                                            "checkpoint", "seconds")}
        entry["cpu"] = cpu_model()
        entry["workloads"] = summary[last["source_sha256"]]
        path = Path(args.baseline_out)
        doc = json.loads(path.read_text()) if path.exists() else {"entries": []}
        doc["entries"].append(entry)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
