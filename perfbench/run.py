"""moefy benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload train|eval|decode --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root; the program is imported from ./src. With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. The line before it starts
with "# meta" and records what ran; the full record (including the span
table of a traced run) is appended to .perfbench_work/records.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Metric name -> unit; must match BENCHMARK.json (the smoke test checks it).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dense_tok_s": "tok/s",
    "lte_tok_s": "tok/s",
    "lte_loss": "nats",
}


def per_layer_spec(n_layers: int = 4) -> list[tuple]:
    """(metric name, unit, phase, traced function or None, quantity)."""
    spec = []
    for p in ("base", "stage1", "stage2"):
        spec += [
            (f"{p}.numerics.matmul.calls", "calls/step", p, "numerics.matmul", "calls"),
            (f"{p}.numerics.matmul.ms", "ms/step", p, "numerics.matmul", "ms"),
            (f"{p}.model.forward_lm.calls", "calls/step", p, "model.forward_lm", "calls"),
            (f"{p}.model.forward_lm.self_ms", "ms/step", p, "model.forward_lm", "self_ms"),
            (f"{p}.autograd.backward.ms", "ms/step", p, "autograd.backward", "ms"),
            (f"{p}.training.collect_gradients.ms", "ms/step", p, "training.collect_gradients", "ms"),
            (f"{p}.training.optimizer_step.ms", "ms/step", p, "training.optimizer_step", "ms"),
            (f"{p}.training.clip_gradients.ms", "ms/step", p, "training.clip_gradients", "ms"),
            (f"{p}.training.sample_batch.ms", "ms/step", p, "training.sample_batch", "ms"),
            (f"{p}.training.grad_norm", "l2", p, "training.clip_gradients", "grad_norm"),
            (f"{p}.checkpoint.save_checkpoint.ms", "ms/call", p, "checkpoint.save_checkpoint", "ms_call"),
        ]
    spec += [
        ("stage1.routing.soft_ffn_graph.ms", "ms/step", "stage1", "routing.soft_ffn_graph", "ms"),
        ("stage1.losses.aux_loss_graph.ms", "ms/step", "stage1", "losses.aux_loss_graph", "ms"),
        ("stage1.grouping.group_experts_kmeans.ms", "ms/call", "stage1", "grouping.group_experts_kmeans", "ms_call"),
        ("stage1.checkpoint.load_checkpoint.ms", "ms/call", "stage1", "checkpoint.load_checkpoint", "ms_call"),
        ("stage2.routing.discrete_ffn_graph.ms", "ms/step", "stage2", "routing.discrete_ffn_graph", "ms"),
        ("stage2.checkpoint.load_checkpoint.ms", "ms/call", "stage2", "checkpoint.load_checkpoint", "ms_call"),
    ]
    for p in ("dense", "lte"):
        spec += [
            (f"{p}.numerics.matmul.calls", "calls/tok", p, "numerics.matmul", "calls"),
            (f"{p}.numerics.matmul.ms", "ms/tok", p, "numerics.matmul", "ms"),
            (f"{p}.model.forward_lm.calls", "calls/tok", p, "model.forward_lm", "calls"),
            (f"{p}.model.forward_lm.self_ms", "ms/tok", p, "model.forward_lm", "self_ms"),
            (f"{p}.losses.task_loss.ms", "ms/tok", p, "losses.task_loss", "ms"),
            (f"{p}.checkpoint.load_checkpoint.ms", "ms/call", p, "checkpoint.load_checkpoint", "ms_call"),
        ]
    spec += [
        ("lte.routing.router_scores.ms", "ms/tok", "lte", "routing.router_scores", "ms"),
        ("lte.routing.moe_forward_discrete.ms", "ms/tok", "lte", "routing.moe_forward_discrete", "ms"),
        ("lte.sparse_exec.sparse_ffn_forward.calls", "calls/tok", "lte", "sparse_exec.sparse_ffn_forward", "calls"),
        ("lte.sparse_exec.sparse_ffn_forward.ms", "ms/tok", "lte", "sparse_exec.sparse_ffn_forward", "ms"),
        ("lte.sparse_exec.tokens_per_group", "tok/group", "lte", "sparse_exec.sparse_ffn_forward", "tokens_per_group"),
        ("lte.sparse_exec.flops_ratio", "ratio", "lte", "sparse_exec.sparse_ffn_forward", "flops_ratio"),
        ("lte.sparse_exec.pack.ms", "ms/tok", "lte", "sparse_exec.pack", "ms"),
    ]
    spec += [(f"lte.routing.kept_fraction.l{i}", "ratio", "lte", "routing.moe_forward_discrete",
              f"kept{i}") for i in range(n_layers)]
    spec.append(("trace.overhead_pct", "%", None, None, "overhead"))
    return spec


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "eval", "decode"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks model and steps; for the smoke test only")
    return ap.parse_args(argv)


def import_program():
    """Import moefy from ./src of the checkout, never from anywhere else."""
    if not (SRC / "moefy" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'moefy'}; "
                         "run from the root of a moefy checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import moefy
    if Path(moefy.__file__).resolve().parent != (SRC / "moefy").resolve():
        raise SystemExit(f"perfbench: imported moefy from {moefy.__file__}, not {SRC}")


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "moefy").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args, size) -> dict:
    import numpy as np
    from moefy.config import RunConfig
    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = "unknown"
    cfg = RunConfig()
    shape = {k: getattr(cfg, k) for k in ("d_model", "n_heads", "n_layers", "d_ffn",
                                          "expert_size", "batch_size", "seq_len")}
    shape.update(dict(item.split("=", 1) for item in size.model_sets))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in ("MOEFY_THREADS", "OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "model": shape, "stage1_eta": workloads.STAGE1_ETA,
        "checkpoint": {"seed": workloads.CHECKPOINT_SEED, "steps": size.ckpt_steps,
                       "sets": size.ckpt_sets},
    }


def cpu_stall_us() -> float | None:
    """Microseconds some task waited for a CPU, from Linux pressure stall info."""
    try:
        with open("/proc/pressure/cpu") as fh:
            return float(fh.readline().split("total=")[1])
    except (OSError, IndexError, ValueError):
        return None


def install_observers(run, tracer) -> None:
    import numpy as np

    def grad_norm(phase, args, kwargs, result):
        run.grad_norms.setdefault(phase, []).append(float(result))

    def routed(phase, args, kwargs, result):
        mask = result[1].mask
        layer = getattr(args[1], "layer_index", None) if len(args) > 1 else None
        acc = run.kept.setdefault(layer, [0, 0])
        acc[0] += int(mask.sum())
        acc[1] += mask.size

    def gathered(phase, args, kwargs, result):
        packed, selections = args[0], args[1]
        sels = [np.asarray(s) for s in selections]
        run.gather[0] += len(sels)
        run.gather[1] += len({s.tobytes() for s in sels})
        run.gather[2] += sum(s.size for s in sels)
        run.gather[3] += len(sels) * packed.n_experts

    tracer.observers["training.clip_gradients"] = grad_norm
    tracer.observers["routing.moe_forward_discrete"] = routed
    tracer.observers["sparse_exec.sparse_ffn_forward"] = gathered


def overhead_pct(samples) -> float:
    """Traced vs untraced seconds per unit of work, weighted by untraced time."""
    agg = {}
    for traced, by_phase in samples:
        for phase, (work, secs) in by_phase.items():
            a = agg.setdefault(phase, [0.0, 0.0, 0.0, 0.0])
            a[2 * traced] += work
            a[2 * traced + 1] += secs
    total, weighted = 0.0, 0.0
    for w0, s0, w1, s1 in agg.values():
        if w0 and w1:
            total += s0
            weighted += s0 * (s1 / w1) / (s0 / w0)
    return 100.0 * (weighted / total - 1.0) if total else 0.0


def per_layer_metrics(run, tracer, n_layers: int) -> tuple[dict, list]:
    metrics, absent = {}, []
    for name, unit, phase, label, qty in per_layer_spec(n_layers):
        if qty == "overhead":
            value = overhead_pct(run.samples)
        elif not tracer.has(label):
            absent.append(name)
            continue
        else:
            calls, total, own = tracer.totals(phase, label)
            work = run.work_done.get(phase, 0)
            per = 1.0 / work if work else 0.0
            if qty == "calls":
                value = calls * per
            elif qty == "ms":
                value = 1e3 * total * per
            elif qty == "self_ms":
                value = 1e3 * own * per
            elif qty == "ms_call":
                value = 1e3 * total / calls if calls else 0.0
            elif qty == "grad_norm":
                norms = run.grad_norms.get(phase, [])
                value = float(sorted(norms)[len(norms) // 2]) if norms else 0.0
            elif qty == "tokens_per_group":
                value = run.gather[0] / run.gather[1] if run.gather[1] else 0.0
            elif qty == "flops_ratio":
                value = run.gather[2] / run.gather[3] if run.gather[3] else 0.0
            else:  # kept<i>
                m, t = run.kept.get(int(qty[4:]), (0, 0))
                value = m / t if t else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracer as tracing
    import workloads

    size = workloads.SIZES[args.size]
    meta = metadata(args, size)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    run = workloads.Run(work=work, seed=args.seed, size=size, trace=bool(args.trace))
    if args.trace:
        tracer = tracing.Tracer()
        tracer.enabled = True  # set-up is traced; the timed section traces its second half
    else:  # only the grad-norm check, one call per train step
        tracer = tracing.Tracer(targets=(("training", "clip_gradients"),))
        tracer.enabled = True
    install_observers(run, tracer)
    run.tracer = tracer
    stall0, wall0 = cpu_stall_us(), time.perf_counter()
    try:
        with tracer:
            e2e = workloads.WORKLOADS[args.workload](run, args.seconds)
    except workloads.BenchFailure as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    norms = [v for vs in run.grad_norms.values() for v in vs]
    run.check(all(math.isfinite(v) for v in norms), "non-finite gradient norm")
    run.check(tracer.violations == 0, f"{tracer.violations} spans shorter than their children")
    if args.trace:
        metrics, absent = per_layer_metrics(run, tracer, int(meta["model"]["n_layers"]))
    else:
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": float(e2e[k]), "unit": u} for k, u in END_TO_END.items()}
        absent = []
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    stall1, wall = cpu_stall_us(), time.perf_counter() - wall0
    if stall0 is not None and stall1 is not None:
        # share of the run during which some task on this host waited for a CPU
        meta["cpu_stall_pct"] = 100.0 * (stall1 - stall0) / 1e6 / wall
    meta.update(problems=run.problems, absent_metrics=absent,
                host_slowdown=sorted(run.slowdowns)[len(run.slowdowns) // 2], **run.extra)
    record = {"meta": meta, "result": result}
    if args.trace:
        record["spans"] = tracer.span_table()
    with open(WORK / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
