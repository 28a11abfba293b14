"""Pipeline driver: train-base -> moefy -> train-lte -> eval / bench / report.

One subcommand per process; every subcommand is deterministic given
(config, seed, inputs). Flags mirror config keys through repeatable
--set key=value options, with precedence flag > config file > default.
Model, optimizer and router settings are built from the RunConfig with
config.section; a flag that the chosen stage or eval method never reads
exits 2 rather than being ignored, and so does a key whose value comes from
the loaded checkpoint but is given differently. train-base and train-lte
share one driver that runs a stage of training.STAGES.
Exit codes: 0 success, 2 config error, 3 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, grouping, routing, sparse_exec, training
from .checkpoint import CheckpointBundle, load_checkpoint, save_checkpoint, write_atomic
from .config import (
    ConfigError,
    RunConfig,
    _coerce,
    build_config,
    load_corpus,
    make_synthetic_corpus,
    parse_config_file,
    section,
)
from .losses import LteHyperparams
from .model import ModelConfig, get_ffn_layer, init_params
from .numerics import NumericError, Rng, blas_threads
from .training import TrainHyper, TrainingState


# training windows whose selection rates order the experts at the end of stage 2
ORDER_WINDOWS = 8


def _out_dir(cfg: RunConfig) -> Path:
    p = Path(cfg.out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _set_overrides(args) -> dict:
    overrides = {}
    types = RunConfig.key_types()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        overrides[key] = _coerce(key, raw, types[key])
    return overrides


def _config(args, **extra) -> RunConfig:
    overrides = _set_overrides(args)
    for key in ("corpus", "out_dir", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    overrides.update({k: v for k, v in extra.items() if v is not None})
    return build_config(args.config, overrides)


def _given_keys(args) -> set:
    """Keys given by --set or in the config file."""
    return set(_set_overrides(args)) | set(parse_config_file(args.config) if args.config else ())


def _check_checkpoint_keys(args, cfg: RunConfig, bundle: CheckpointBundle, allow: tuple = (),
                           meta_keys: tuple = ()) -> None:
    """Keys that come from the checkpoint: a differing --set or config-file value is an error.

    The model keys (less `allow`) come from the checkpoint's config, and
    `meta_keys` from its meta.
    """
    given = _given_keys(args)
    fixed = {k: v for k, v in asdict(bundle.config).items() if k not in allow}
    fixed.update((k, bundle.meta[k]) for k in meta_keys if k in bundle.meta)
    for key, value in fixed.items():
        if key in given and getattr(cfg, key) != value:
            raise ConfigError(f"{key}={getattr(cfg, key)} differs from the checkpoint's "
                              f"{key}={value}; this key comes from the checkpoint")


def _train(cfg: RunConfig, bundle: CheckpointBundle, stage: str, meta: dict) -> int:
    """Run `stage` on the bundle's model for cfg.{stage}_steps steps.

    Writes train_{stage}.log, {stage}_step######.ckpt every checkpoint_every
    steps, and {stage}.ckpt. The bundle takes its stage tag and `meta` before
    training, so the periodic checkpoints carry them too. Stage 2 relabels
    the experts in selection-rate order (`_order_experts`) after its last
    step, so only stage2.ckpt holds the new order.
    """
    corpus = load_corpus(cfg.corpus)
    out = _out_dir(cfg)
    steps = getattr(cfg, f"{stage}_steps")
    state = TrainingState(
        params=bundle.params, hyper=section(TrainHyper, cfg, total_steps=steps),
        rng=Rng(cfg.seed).split(f"{stage}_batches"), stage=stage, routers=bundle.routers,
        aux=section(LteHyperparams, cfg),
    )
    bundle.stage = stage
    # the corpus hash is the base run's: a later stage keeps the one it inherits
    bundle.meta = {"corpus": corpus.sha256, **bundle.meta, **meta, "seed": cfg.seed,
                   "threads": blas_threads()}
    training.run_training(
        state, corpus.train, steps, log_path=str(out / f"train_{stage}.log"),
        checkpoint_every=cfg.checkpoint_every,
        checkpoint_fn=lambda s: save_checkpoint(str(out / f"{stage}_step{s:06d}.ckpt"), bundle),
    )
    if stage == "stage2":
        _order_experts(cfg, bundle, corpus.train)
    ckpt = out / f"{stage}.ckpt"
    save_checkpoint(str(ckpt), bundle)
    print(f"wrote {ckpt}")
    return 0


def _order_experts(cfg: RunConfig, bundle: CheckpointBundle, data: np.ndarray) -> None:
    """Relabel every layer's experts in descending selection-rate order
    (`grouping.order_experts_by_rate`), the rates read off one no-grad lte
    pass over the first ORDER_WINDOWS training windows at cfg.tau."""
    windows = analysis.val_windows(data, cfg.seq_len, ORDER_WINDOWS)
    _, _, masks = analysis.collect_decisions(bundle, windows, cfg.tau)
    bundle.partitions = [
        grouping.order_experts_by_rate(bundle.params, i, p, r.Wg.data, m)
        for i, (p, r, m) in enumerate(zip(bundle.partitions, bundle.routers, masks))]


def cmd_train_base(args) -> int:
    cfg = _config(args, base_steps=args.steps)
    mc = section(ModelConfig, cfg).validate()
    # a given model key that validate() replaced would be recorded but never run
    for key in _given_keys(args) & asdict(mc).keys():
        if getattr(cfg, key) != getattr(mc, key):
            raise ConfigError(f"{key}={getattr(cfg, key)}: ffn_kind={mc.ffn_kind} runs "
                              f"{key}={getattr(mc, key)}")
    params = init_params(mc, Rng(cfg.seed).split("init"))
    bundle = CheckpointBundle(config=params.config, params=params)
    return _train(cfg, bundle, "base", {"steps": cfg.base_steps})


def cmd_moefy(args) -> int:
    cfg = _config(args, expert_size=args.expert_size, group_method=args.method)
    bundle = load_checkpoint(args.checkpoint)
    _check_checkpoint_keys(args, cfg, bundle, allow=("expert_size",))
    if bundle.stage != "base":
        raise ConfigError(f"moefy needs a dense base checkpoint, got stage {bundle.stage!r}")
    mc = bundle.config
    mc.expert_size = cfg.expert_size
    mc.validate()
    method = cfg.group_method
    rng = Rng(cfg.seed)
    partitions, routers = [], []
    for i in range(mc.n_layers):
        if method == "kmeans":
            layer = get_ffn_layer(bundle.params, i)
            slabs = layer.up if layer.gate is None else layer.gate
            feats = slabs.reshape(mc.d_ffn, mc.d_model)  # one row per hidden unit
            p = grouping.group_experts_kmeans(feats, mc.n_experts, rng.split(f"group{i}"),
                                              layer_index=i)
        else:
            p = grouping.group_experts_random(mc.d_ffn, mc.n_experts, rng.split(f"group{i}"),
                                              layer_index=i)
        grouping.apply_partition(bundle.params, i, p)
        partitions.append(p)
        routers.append(routing.router_init(mc.d_model, mc.n_experts, rng.split(f"router{i}")))
    bundle.partitions = partitions
    bundle.routers = routers
    bundle.stage = "moefied"
    bundle.meta = dict(bundle.meta, moefy_seed=cfg.seed, group_method=method,
                       threads=blas_threads())
    out = _out_dir(cfg) / "moefied.ckpt"
    save_checkpoint(str(out), bundle)
    print(f"wrote {out}")
    return 0


def cmd_train_lte(args) -> int:
    stage = f"stage{args.stage}"
    spec = training.STAGES[stage]
    for name in ("eta", "lam"):
        if not spec.objective and getattr(args, name) is not None:
            raise ConfigError(f"--{name} weighs the router objective; "
                              f"{stage} trains on the task loss alone")
    cfg = _config(args, eta=args.eta, lam=args.lam, **{f"{stage}_steps": args.steps})
    bundle = load_checkpoint(args.checkpoint)
    # a stage without the objective keeps the one its checkpoint was trained under
    _check_checkpoint_keys(args, cfg, bundle,
                           meta_keys=() if spec.objective else ("eta", "lam"))
    if bundle.stage != spec.needs:
        raise ConfigError(f"{stage} needs a {spec.needs!r} checkpoint, got {bundle.stage!r}")
    objective = {"eta": cfg.eta, "lam": cfg.lam} if spec.objective else {}
    return _train(cfg, bundle, stage,
                  {**objective, f"{stage}_steps": getattr(cfg, f"{stage}_steps"), "tau": cfg.tau})


def cmd_eval(args) -> int:
    # an unset flag keeps evaluate's default; a set one must be read by the method
    for name in ("k", "keep_fraction", "tau"):
        if getattr(args, name) is not None and name not in analysis.METHOD_SETTINGS[args.method]:
            raise ConfigError(f"--{name.replace('_', '-')} is not read by method {args.method!r}")
    given = {n: getattr(args, n) for n in ("k", "keep_fraction") if getattr(args, n) is not None}
    cfg = _config(args, tau=args.tau)
    corpus = load_corpus(cfg.corpus)
    bundle = load_checkpoint(args.checkpoint)
    _check_checkpoint_keys(args, cfg, bundle)
    windows = analysis.val_windows(corpus.val, cfg.seq_len, cfg.eval_windows)
    metrics = analysis.evaluate(bundle, windows, args.method, tau=cfg.tau, seed=cfg.seed,
                                **given)
    tag = f"{Path(args.checkpoint).name}:{bundle.stage}"
    line = analysis.eval_record_line(metrics, corpus.sha256, tag)
    ledger = _out_dir(cfg) / "results.tsv"
    fresh = not ledger.exists()
    with open(ledger, "a") as fh:
        if fresh:
            fh.write(analysis.EVAL_LEDGER_HEADER + "\n")
        fh.write(line + "\n")
    print(line)
    return 0


def cmd_bench(args) -> int:
    cfg = _config(args)
    try:
        grid = tuple(float(s) / 100.0 for s in args.grid.split(","))
    except ValueError as exc:
        raise ConfigError(f"--grid {args.grid}: {exc}") from None
    report = sparse_exec.bench(
        sparsity_grid=grid, expert_size=args.expert_size, trials=args.trials,
        warmups=args.warmups, seed=cfg.seed,
    )
    out = _out_dir(cfg) / "bench.tsv"
    write_atomic(out, [sparse_exec.format_bench_report(report).encode()])
    print(f"wrote {out} ({len(report.rows)} rows)")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    cfg = _config(args, tau=args.tau)
    corpus = load_corpus(cfg.corpus)
    bundle = load_checkpoint(args.checkpoint)
    _check_checkpoint_keys(args, cfg, bundle)
    if bundle.routers is None or bundle.partitions is None:
        raise ConfigError("report needs a moefied checkpoint with routers")
    windows = analysis.val_windows(corpus.val, cfg.seq_len, cfg.eval_windows)
    report = analysis.layer_sparsity_report(bundle, windows, cfg.tau,
                                            corpus_hash=corpus.sha256)
    out = _out_dir(cfg)
    for name, text in (("report.txt", analysis.format_report(report)),
                       ("sparsity_per_layer.svg", analysis.render_sparsity_svg(report)),
                       ("score_histogram.svg", analysis.render_histogram_svg(report))):
        write_atomic(out / name, [text.encode()])
    print(f"wrote {out / 'report.txt'} (overall sparsity {report.overall_sparsity:.4f})")
    return 0


def cmd_make_corpus(args) -> int:
    cfg = _config(args)
    try:
        make_synthetic_corpus(args.path, n_bytes=args.bytes, seed=cfg.seed)
    except ConfigError as exc:
        raise ConfigError(f"--bytes {args.bytes}: {exc}") from None
    print(f"wrote {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="moefy", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
        p.add_argument("--corpus", help="path to a plain-text corpus")
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("train-base", help="train the dense byte-level LM")
    common(p)
    p.add_argument("--steps", type=int)
    p.set_defaults(fn=cmd_train_base)

    p = sub.add_parser("moefy", help="partition FFN neurons into experts, add routers")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--method", choices=("kmeans", "random"),
                   help="neuron grouping; defaults to the group_method config key")
    p.add_argument("--expert-size", dest="expert_size", type=int)
    p.set_defaults(fn=cmd_moefy)

    p = sub.add_parser("train-lte", help="router training (stage 1) or adaptation (stage 2)")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--eta", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--steps", type=int)
    p.set_defaults(fn=cmd_train_lte)

    p = sub.add_parser("eval", help="validation perplexity / sparsity / FLOPs")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--method", choices=analysis.EVAL_METHODS, default="lte")
    p.add_argument("--tau", type=float)
    p.add_argument("--k", type=int,
                   help="experts per token (moefication_gt, random_router, noisy_topk); default 1")
    p.add_argument("--keep-fraction", dest="keep_fraction", type=float,
                   help="share of hidden neurons kept per token (dejavu); default 1.0")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="dense vs gather FFN latency table")
    common(p)
    p.add_argument("--grid", default="0,25,50,75,90", help="sparsity grid in percent")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--warmups", type=int, default=5)
    p.add_argument("--expert-size", dest="expert_size", type=int, default=128)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("report", help="sparsity / histogram / union report + SVGs")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tau", type=float)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("make-corpus", help="generate a deterministic synthetic corpus")
    common(p)
    p.add_argument("--path", required=True)
    p.add_argument("--bytes", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_make_corpus)

    return ap


# glibc mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# 32 MiB is the ceiling of glibc's own dynamic mmap threshold on 64-bit, and
# glibc sets the trim threshold to twice the mmap threshold when it raises it
HEAP_MMAP_BYTES = 32 << 20
HEAP_TRIM_BYTES = 2 * HEAP_MMAP_BYTES


def keep_freed_heap() -> None:
    """Keep freed heap mapped for reuse by this process.

    A training step frees its tape and the temporaries of its products and
    kernels (arrays of 1-4 MB at the default shape), and the next step
    allocates the same sizes again. Under glibc's defaults those blocks are
    mapped fresh or the freed top of the heap is given back to the OS, so
    every step page-faults its working set in again (about 10k minor faults
    for forty 1 MB arrays and one 4 MB array). With the trim threshold at
    HEAP_TRIM_BYTES and the mmap threshold at HEAP_MMAP_BYTES, blocks below
    32 MiB come from the heap and up to 64 MiB of freed heap stays mapped, so
    the next step reuses pages that are already there. Both thresholds are
    set: setting either one turns glibc's dynamic mmap threshold off.

    Results are unchanged; only where the allocator gets memory moves. Calling
    it again sets the same values. Where the C library has no `mallopt`
    (macOS, Windows) or ignores it (musl returns 0), nothing happens.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_BYTES)
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_BYTES)


def main(argv=None) -> int:
    keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        # a bad input path is a config error; other OS errors (a failed write) are not
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
