"""Pipeline driver: train-base -> moefy -> train-lte -> eval / bench / report.

One subcommand per process; every subcommand is deterministic given
(config, seed, inputs). Flags mirror config keys through repeatable
--set key=value options, with precedence flag > config file > default.
Model, optimizer and router settings are built from the RunConfig with
config.section; a flag that the chosen stage or eval method never reads
exits 2 rather than being ignored.
Exit codes: 0 success, 2 config error, 3 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, grouping, routing, sparse_exec, training
from .checkpoint import CheckpointBundle, load_checkpoint, save_checkpoint
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
from .model import ModelConfig, get_ffn_layer, init_params, set_ffn_layer
from .numerics import NumericError, Rng, blas_threads
from .training import TrainHyper, TrainingState


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


def _check_model_keys(args, cfg: RunConfig, mc: ModelConfig, allow: tuple = ()) -> None:
    """Model keys come from the checkpoint: a differing --set or config-file value is an error."""
    given = set(_set_overrides(args)) | set(parse_config_file(args.config) if args.config else ())
    for f in fields(ModelConfig):
        key = f.name
        if key in given and key not in allow and getattr(cfg, key) != getattr(mc, key):
            raise ConfigError(f"{key}={getattr(cfg, key)} differs from the checkpoint's "
                              f"{key}={getattr(mc, key)}; model keys come from the checkpoint")


def cmd_train_base(args) -> int:
    cfg = _config(args, base_steps=args.steps)
    corpus = load_corpus(cfg.corpus)
    out = _out_dir(cfg)
    rng = Rng(cfg.seed)
    params = init_params(section(ModelConfig, cfg), rng.split("init"))
    state = TrainingState(
        params=params, hyper=section(TrainHyper, cfg, total_steps=cfg.base_steps),
        rng=rng.split("base_batches"),
        stage="base")
    bundle = CheckpointBundle(
        config=params.config, params=params, stage="base",
        meta={"seed": cfg.seed, "steps": cfg.base_steps, "corpus": corpus.sha256,
              "threads": blas_threads()},
    )
    training.run_training(
        state, corpus.train, cfg.base_steps, log_path=str(out / "train_base.log"),
        checkpoint_every=cfg.checkpoint_every,
        checkpoint_fn=lambda s: save_checkpoint(str(out / f"base_step{s:06d}.ckpt"), bundle),
    )
    ckpt = out / "base.ckpt"
    save_checkpoint(str(ckpt), bundle)
    print(f"wrote {ckpt}")
    return 0


def cmd_moefy(args) -> int:
    cfg = _config(args, expert_size=args.expert_size, group_method=args.method)
    bundle = load_checkpoint(args.checkpoint)
    _check_model_keys(args, cfg, bundle.config, allow=("expert_size",))
    if bundle.stage != "base":
        raise ConfigError(f"moefy needs a dense base checkpoint, got stage {bundle.stage!r}")
    mc = bundle.config
    mc.expert_size = cfg.expert_size
    mc.validate()
    method = cfg.group_method
    rng = Rng(cfg.seed)
    partitions, routers = [], []
    for i in range(mc.n_layers):
        layer = get_ffn_layer(bundle.params, i)
        if method == "kmeans":
            w = layer.weights
            feats = (w["gate"] if "gate" in w else w["up"]).T
            p = grouping.group_experts_kmeans(feats, mc.n_experts, rng.split(f"group{i}"),
                                              layer_index=i)
        else:
            p = grouping.group_experts_random(mc.d_ffn, mc.n_experts, rng.split(f"group{i}"),
                                              layer_index=i)
        set_ffn_layer(bundle.params, i, grouping.apply_partition(layer, p))
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
    # stage 2 trains on the task loss alone, so the router-objective weights are stage 1's
    for name in ("eta", "lam"):
        if args.stage == 2 and getattr(args, name) is not None:
            raise ConfigError(f"--{name} is a stage-1 flag; stage 2 trains on the task loss alone")
    cfg = _config(args, eta=args.eta, lam=args.lam)
    steps = args.steps if args.steps is not None else (
        cfg.stage1_steps if args.stage == 1 else cfg.stage2_steps)
    bundle = load_checkpoint(args.checkpoint)
    _check_model_keys(args, cfg, bundle.config)
    need = "moefied" if args.stage == 1 else "stage1"
    if bundle.stage != need:
        raise ConfigError(
            f"stage {args.stage} needs a {need!r} checkpoint, got {bundle.stage!r}")
    corpus = load_corpus(cfg.corpus)
    out = _out_dir(cfg)
    state = TrainingState(
        params=bundle.params, hyper=section(TrainHyper, cfg, total_steps=steps),
        rng=Rng(cfg.seed).split(f"stage{args.stage}_batches"),
        routers=bundle.routers, aux=section(LteHyperparams, cfg),
    )
    bundle.stage = f"stage{args.stage}"
    run = training.run_stage1 if args.stage == 1 else training.run_stage2
    run(state, corpus.train, steps, log_path=str(out / f"train_stage{args.stage}.log"),
        checkpoint_every=cfg.checkpoint_every,
        checkpoint_fn=lambda s: save_checkpoint(
            str(out / f"stage{args.stage}_step{s:06d}.ckpt"), bundle))
    objective = {"eta": cfg.eta, "lam": cfg.lam} if args.stage == 1 else {}
    bundle.meta = dict(bundle.meta, **objective, **{
        f"stage{args.stage}_steps": steps, "tau": cfg.tau, "seed": cfg.seed,
        "threads": blas_threads(),
    })
    ckpt = out / f"stage{args.stage}.ckpt"
    save_checkpoint(str(ckpt), bundle)
    print(f"wrote {ckpt}")
    return 0


def cmd_eval(args) -> int:
    # an unset flag keeps evaluate's default; a set one must be read by the method
    for name in ("k", "keep_fraction", "tau"):
        if getattr(args, name) is not None and name not in analysis.METHOD_SETTINGS[args.method]:
            raise ConfigError(f"--{name.replace('_', '-')} is not read by method {args.method!r}")
    given = {n: getattr(args, n) for n in ("k", "keep_fraction") if getattr(args, n) is not None}
    cfg = _config(args, tau=args.tau)
    corpus = load_corpus(cfg.corpus)
    bundle = load_checkpoint(args.checkpoint)
    _check_model_keys(args, cfg, bundle.config)
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
    grid = tuple(float(s) / 100.0 for s in args.grid.split(","))
    report = sparse_exec.bench(
        sparsity_grid=grid, expert_size=args.expert_size, trials=args.trials,
        warmups=args.warmups, seed=cfg.seed,
    )
    out = _out_dir(cfg) / "bench.tsv"
    sparse_exec.write_bench_report(report, str(out))
    print(f"wrote {out} ({len(report.rows)} rows)")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    cfg = _config(args, tau=args.tau)
    corpus = load_corpus(cfg.corpus)
    bundle = load_checkpoint(args.checkpoint)
    _check_model_keys(args, cfg, bundle.config)
    if bundle.routers is None or bundle.partitions is None:
        raise ConfigError("report needs a moefied checkpoint with routers")
    windows = analysis.val_windows(corpus.val, cfg.seq_len, cfg.eval_windows)
    report = analysis.layer_sparsity_report(bundle, windows, cfg.tau,
                                            corpus_hash=corpus.sha256)
    out = _out_dir(cfg)
    analysis.write_report(report, str(out / "report.txt"))
    (out / "sparsity_per_layer.svg").write_text(analysis.render_sparsity_svg(report))
    (out / "score_histogram.svg").write_text(analysis.render_histogram_svg(report))
    print(f"wrote {out / 'report.txt'} (overall sparsity {report.overall_sparsity:.4f})")
    return 0


def cmd_make_corpus(args) -> int:
    cfg = _config(args)
    make_synthetic_corpus(args.path, n_bytes=args.bytes, seed=cfg.seed)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
