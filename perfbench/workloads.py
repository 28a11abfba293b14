"""The three benchmark workloads: train, eval and decode.

Each workload is a closed loop: one process, one caller, sequential calls
into the program through its public entry points (`moefy.cli.main`
subcommands, and `model.forward_lm` for decode). Every workload reports the
same end-to-end metrics, each read on that workload's own phases:

  dense_tok_s  train: train-base; eval: eval --method dense; decode: dense
  lte_tok_s    train: train-lte stages 1+2; eval: eval --method lte; decode: lte
  lte_loss     train: stage-2 task loss; eval and decode: lte cross-entropy

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from moefy import analysis, checkpoint, cli, config, losses, model, sparse_exec
from moefy.autograd import no_grad

import tracer as tracing

TRAIN_PHASES = ("base", "stage1", "stage2")
SERVE_PHASES = ("dense", "lte")
ROUTED_PHASES = ("stage1", "stage2")

CHECKPOINT_SEED = 0   # the eval/decode checkpoint is the same for every --seed
STAGE1_ETA = 0.05     # the default eta=1.0 collapses to sparsity 1.0; see README
LOGIT_ATOL = 1e-4     # gather path vs masked-dense path, float32 logits
MIN_DECODE_MATCH = 0.98  # teacher-forced greedy byte agreement, gather vs masked-dense
SETUP_BUDGET_S = 40.0  # no further set-up repeat once set-up took this long (slow host)
CAL_LOOPS = 200
CAL_REF_S = 0.015     # calibration time that defines the reference host speed


def calibrate() -> float:
    """Seconds for a fixed single-threaded loop of Python and numpy elementwise work.

    The host is shared, and its speed drifts by +-25% over seconds to
    minutes. Set-up, eval and decode timings are scaled by
    calibration/CAL_REF_S measured right before them, which turns them into
    timings at the reference host speed; the loop does not touch moefy or
    BLAS, so no program change moves it.
    """
    x = np.linspace(-3.0, 3.0, 64 * 128, dtype=np.float32).reshape(64, 128)
    t0 = time.perf_counter()
    for _ in range(CAL_LOOPS):
        np.tanh(x) * 0.5 + x * x
        d: dict = {}
        for i in range(500):
            d[i % 97] = d.get(i % 97, 0) + i
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Size:
    """Every knob of a workload; `FULL` is the benchmark, `TINY` the smoke test."""
    model_sets: tuple = ()          # --set overrides of the model shape
    corpus_bytes: int = 200_000     # every corpus the workloads write
    train_steps: int = 10           # per stage, per round of the train workload
    ckpt_sets: tuple = ("batch_size=4",)
    ckpt_steps: tuple = (30, 30, 5)  # base, stage 1, stage 2
    kept_band: tuple = (0.2, 0.6)   # declared kept fraction of the eval checkpoint
    eval_windows: int = 32          # T=64 windows per eval call
    prompt_len: int = 16
    gen_len: int = 48               # prefixes of 16..63 bytes
    min_prompts: int = 4            # 4 * 48 = 192 samples per path, p90 has 19 beyond
    check_windows: int = 4
    check_prompts: int = 4
    setup_repeats: int = 3
    train_setup_repeats: int = 7    # the train set-up is short, so repeat it more


FULL = Size()
TINY = Size(
    model_sets=("d_model=32", "n_heads=2", "d_ffn=64", "expert_size=8",
                "max_seq_len=32", "seq_len=16", "batch_size=2"),
    corpus_bytes=20_000, train_steps=2, ckpt_sets=(), ckpt_steps=(2, 2, 2),
    kept_band=(0.0, 1.0), eval_windows=2, prompt_len=4, gen_len=4, min_prompts=1,
    check_windows=1, check_prompts=1,
    setup_repeats=2, train_setup_repeats=2,
)
SIZES = {"full": FULL, "tiny": TINY}


class BenchFailure(Exception):
    """A failure after which the workload cannot produce its metrics."""


@dataclass
class Run:
    """State of one benchmark run: inputs, counters, and the optional tracer."""
    work: Path
    seed: int
    size: Size
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)      # figures kept in the record only
    trace: bool = False                            # per-layer run: half untraced, half traced
    tracer: tracing.Tracer | None = None
    samples: list = field(default_factory=list)    # (traced, {phase: (work, seconds)})
    work_done: dict = field(default_factory=dict)  # phase -> steps or tokens, traced only
    grad_norms: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)       # layer -> [masked, total]
    gather: list = field(default_factory=lambda: [0, 0, 0, 0])  # tokens, groups, selected, slots
    slowdowns: list = field(default_factory=list)  # every calibration of this run

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    @contextlib.contextmanager
    def phase(self, name: str):
        if self.tracer is None:
            yield
            return
        prev = self.tracer.phase
        self.tracer.phase = name
        try:
            yield
        finally:
            self.tracer.phase = prev

    def count(self, phase: str, amount: int) -> None:
        if self.trace and self.tracer.enabled:
            self.work_done[phase] = self.work_done.get(phase, 0) + amount

    def timed(self, fn, seconds: float, minimum: int = 1) -> None:
        """Call fn(0), fn(1), ... until `seconds` pass, at least `minimum` times.

        fn returns {phase: (work, seconds)}. In a traced run the first half
        of the time runs untraced and the second half traced; comparing the
        two halves gives the tracing overhead.
        """
        halves = [(False, seconds / 2), (True, seconds / 2)] if self.trace else [(False, seconds)]
        k = 0
        for traced, budget in halves:
            if self.trace:
                self.tracer.enabled = traced
            t0 = time.perf_counter()
            n = 0
            while n < minimum or time.perf_counter() - t0 < budget:
                self.samples.append((traced, fn(k)))
                k += 1
                n += 1
        if self.trace:
            self.tracer.enabled = False

    def slowdown(self) -> float:
        """Host slowdown now against the reference speed (2.0 = half as fast)."""
        factor = calibrate() / CAL_REF_S
        self.slowdowns.append(factor)
        return factor

    def moefy(self, *argv: str) -> tuple[float, str]:
        """One `moefy` subcommand in-process; returns (seconds, stdout)."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        dt = time.perf_counter() - t0
        if not self.check(rc == 0, f"moefy {' '.join(argv)} exited {rc}"):
            raise BenchFailure(self.problems[-1])
        return dt, buf.getvalue()


def setting(size: Size, key: str):
    """A RunConfig value as the size's --set overrides leave it."""
    default = getattr(config.RunConfig, key)
    for item in size.model_sets:
        k, v = item.split("=", 1)
        if k == key:
            return type(default)(v)
    return default


def sets(*items: str) -> list[str]:
    out = []
    for item in items:
        out += ["--set", item]
    return out


# --- shared set-up ----------------------------------------------------------------


def make_corpus(run: Run, name: str, n_bytes: int, seed: int) -> str:
    path = str(run.work / name)
    config.make_synthetic_corpus(path, n_bytes=n_bytes, seed=seed)
    return path


def read_log(run: Run, path: Path) -> list[list[float]]:
    """Training log rows as floats; each loss and the sparsity must be finite."""
    rows = []
    for line in path.read_text().splitlines()[1:]:
        rows.append([float(v) for v in line.split("\t")])
    run.check(bool(rows) and all(math.isfinite(v) for r in rows for v in r),
              f"non-finite or missing training loss in {path.name}")
    return rows


def train_pipeline(run: Run, out: Path, corpus: str, seed: int, steps: tuple,
                   extra_sets: tuple) -> dict:
    """train-base -> moefy -> train-lte 1 -> train-lte 2.

    Returns {stage: (seconds, host slowdown measured just before)}.
    """
    out.mkdir(parents=True, exist_ok=True)
    common = ["--corpus", corpus, "--out-dir", str(out), "--seed", str(seed),
              *sets(*run.size.model_sets, *extra_sets)]
    nb, n1, n2 = steps
    secs = {}
    with run.phase("base"):
        slow = run.slowdown()
        secs["base"] = (run.moefy("train-base", "--steps", str(nb), *common)[0], slow)
    run.count("base", nb)
    with run.phase("stage1"):
        run.moefy("moefy", "--checkpoint", str(out / "base.ckpt"), *common)
        slow = run.slowdown()
        secs["stage1"] = (run.moefy("train-lte", "--stage", "1", "--checkpoint",
                                    str(out / "moefied.ckpt"), "--eta", repr(STAGE1_ETA),
                                    "--steps", str(n1), *common)[0], slow)
    run.count("stage1", n1)
    with run.phase("stage2"):
        slow = run.slowdown()
        secs["stage2"] = (run.moefy("train-lte", "--stage", "2", "--checkpoint",
                                    str(out / "stage1.ckpt"), "--steps", str(n2), *common)[0],
                          slow)
    run.count("stage2", n2)
    return secs


def build_serving_setup(run: Run) -> tuple[str, str]:
    """Eval corpus from --seed plus the fixed-seed stage-2 checkpoint.

    Repeated `setup_repeats` times (fewer on a host so slow that set-up
    exceeds SETUP_BUDGET_S); the median is `setup_s`, and every repeat must
    give a byte-identical checkpoint.
    """
    size = run.size
    times, slows, digests = [], [], set()
    for r in range(size.setup_repeats):
        if sum(times) > SETUP_BUDGET_S:
            break
        slow = run.slowdown()
        t0 = time.perf_counter()
        corpus = make_corpus(run, "eval_corpus.txt", size.corpus_bytes, run.seed)
        ckpt_corpus = make_corpus(run, "ckpt_corpus.txt", size.corpus_bytes, CHECKPOINT_SEED)
        out = run.work / f"ckpt{r}"
        stages = train_pipeline(run, out, ckpt_corpus, CHECKPOINT_SEED, size.ckpt_steps,
                                size.ckpt_sets)
        times.append(time.perf_counter() - t0)
        slows.append(float(np.mean([slow] + [sl for _, sl in stages.values()])))
        digests.add(hashlib.sha256((out / "stage2.ckpt").read_bytes()).hexdigest())
        ckpt = str(out / "stage2.ckpt")
    run.check(len(digests) == 1, "checkpoint set-up is not byte-deterministic")
    run.extra["setup_samples_s"] = times
    run.extra["setup_s_at_reference"] = [t / sl for t, sl in zip(times, slows)]
    return corpus, ckpt


def lte_kwargs(bundle, packed) -> dict:
    return dict(ffn_mode="moe_discrete", routers=bundle.routers, tau=0.5,
                partitions=bundle.partitions, packed=packed)


def packed_layers(bundle) -> list:
    return [sparse_exec.pack(model.get_ffn_layer(bundle.params, i, partition=bundle.partitions[i]))
            for i in range(bundle.config.n_layers)]


def check_gather_vs_masked(run: Run, bundle, packed, seqs: list) -> None:
    """No-grad gather logits must match the grad-enabled masked-dense path."""
    worst, flips, total = 0.0, 0, 0
    for seq in seqs:
        with no_grad():
            fast = model.forward_lm(bundle.params, seq, **lte_kwargs(bundle, packed)).logits.data
        ref = model.forward_lm(bundle.params, seq, ffn_mode="moe_discrete",
                               routers=bundle.routers, tau=0.5).logits.data
        worst = max(worst, float(np.abs(fast - ref).max()))
        flips += int((fast.argmax(axis=1) != ref.argmax(axis=1)).sum())
        total += seq.shape[0]
    run.extra["gather_vs_masked"] = {"max_abs_diff": worst, "argmax_flips": flips,
                                     "tokens": total}
    run.check(worst <= LOGIT_ATOL,
              f"gather vs masked-dense logits differ by {worst:.3g} > {LOGIT_ATOL}")


# --- workloads ----------------------------------------------------------------------


def workload_train(run: Run, seconds: float) -> dict:
    """Rounds of the full training pipeline at B=8, T=64 until time is up.

    Set-up writes the corpus and runs one warm-up train step, three times.
    """
    size = run.size
    times, scaled = [], []
    for _ in range(size.train_setup_repeats):
        if sum(times) > SETUP_BUDGET_S:
            break
        slow = run.slowdown()
        t0 = time.perf_counter()
        corpus = make_corpus(run, "corpus.txt", size.corpus_bytes, run.seed)
        # one warm-up step, so the first timed round pays no first-call costs
        with run.phase("setup"):
            run.moefy("train-base", "--steps", "1", "--corpus", corpus, "--seed", str(run.seed),
                      "--out-dir", str(run.work / "warmup"), *sets(*size.model_sets))
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] / slow)
    run.extra.update(setup_samples_s=times, setup_s_at_reference=scaled)
    tokens_per_step = setting(size, "batch_size") * setting(size, "seq_len")
    steps = (size.train_steps,) * 3
    rounds = []

    def one_round(k: int) -> dict:
        out = run.work / f"round{k}"
        secs = train_pipeline(run, out, corpus, run.seed, steps, ())
        logs = {p: read_log(run, out / f"train_{p}.log") for p in TRAIN_PHASES}
        rounds.append({"secs": secs, "stage2_log": (out / "train_stage2.log").read_text(),
                       "stage2_task": [r[1] for r in logs["stage2"]]})
        shutil.rmtree(out)
        return {p: (steps[i] * tokens_per_step, secs[p][0]) for i, p in enumerate(TRAIN_PHASES)}

    run.timed(one_round, seconds)
    run.check(len({r["stage2_log"] for r in rounds}) == 1,
              "repeated training rounds did not reproduce the same losses")
    # Unlike eval and decode, train throughput is the best round, unscaled: a
    # round is long, a run has only a few, and most of a step is two-thread
    # BLAS, which the one-thread calibration does not track. On one set of
    # runs the spread between runs was 0.07-0.12 for the best round, 0.18-0.23
    # for the median round and 0.20-0.32 for the calibration-scaled median.
    tok = steps[0] * tokens_per_step
    raw = {p: [tok / r["secs"][p][0] for r in rounds] for p in TRAIN_PHASES}
    lte = [2 * tok / sum(r["secs"][p][0] for p in ROUTED_PHASES) for r in rounds]
    run.extra.update(rounds=len(rounds), rates=raw,
                     train_tok_s={p: max(v) for p, v in raw.items()})
    return {
        "setup_s": statistics.median(scaled),
        "dense_tok_s": max(raw["base"]),
        "lte_tok_s": max(lte),
        "lte_loss": float(np.mean(rounds[0]["stage2_task"])),
    }


def workload_eval(run: Run, seconds: float) -> dict:
    """Alternating `eval --method dense|lte` calls over the same T=64 windows."""
    size = run.size
    corpus, ckpt = build_serving_setup(run)
    setup_s = statistics.median(run.extra["setup_s_at_reference"])
    out = run.work / "eval"
    common = ["--checkpoint", ckpt, "--corpus", corpus, "--out-dir", str(out),
              *sets(*size.model_sets, f"eval_windows={size.eval_windows}")]
    windows = analysis.val_windows(config.load_corpus(corpus).val, setting(size, "seq_len"),
                                   size.eval_windows)
    tokens = sum(w.shape[0] - 1 for w in windows)
    rates = {"dense": [], "lte": []}
    ref = {"dense": [], "lte": []}
    fields = {}

    def one_pair(k: int) -> dict:
        got = {}
        for method in (SERVE_PHASES if k % 2 == 0 else SERVE_PHASES[::-1]):
            slow = run.slowdown()
            with run.phase(method):
                dt, line = run.moefy("eval", "--method", method, *common)
            run.count(method, tokens)
            rates[method].append(tokens / dt)
            ref[method].append(tokens * slow / dt)
            cols = line.strip().split("\t")
            fields.setdefault(method, set()).add(tuple(cols[3:6]))  # ppl, ce, sparsity
            got[method] = (tokens, dt)
        return got

    run.timed(one_pair, seconds)
    run.check(all(len(v) == 1 for v in fields.values()), "repeated eval calls disagree")
    ppl, ce, sparsity = (float(v) for v in next(iter(fields["lte"])))
    kept = 1.0 - sparsity
    lo, hi = size.kept_band
    run.check(lo <= kept <= hi, f"eval checkpoint kept fraction {kept:.3f} outside [{lo}, {hi}]")
    run.extra.update(lte_ppl=ppl, kept_fraction=kept, eval_tokens_per_call=tokens,
                     calls_per_method=len(rates["lte"]), rates=rates, rates_at_reference=ref)

    bundle = checkpoint.load_checkpoint(ckpt)
    seqs = [w[:-1] for w in windows[:size.check_windows]]
    check_gather_vs_masked(run, bundle, packed_layers(bundle), seqs)
    return {
        "setup_s": setup_s,
        "dense_tok_s": statistics.median(ref["dense"]),
        "lte_tok_s": statistics.median(ref["lte"]),
        "lte_loss": ce,
    }


def greedy(bundle, prompt: np.ndarray, n: int, kwargs: dict) -> tuple[np.ndarray, list]:
    """Greedy bytes; one forward_lm over the full prefix per new byte."""
    seq = list(int(b) for b in prompt)
    times = []
    with no_grad():
        for _ in range(n):
            t0 = time.perf_counter()
            logits = model.forward_lm(bundle.params, np.asarray(seq, dtype=np.int64),
                                      **kwargs).logits.data
            seq.append(int(logits[-1].argmax()))
            times.append(time.perf_counter() - t0)
    return np.asarray(seq, dtype=np.int64), times


def workload_decode(run: Run, seconds: float) -> dict:
    """Greedy byte generation from validation-slice prompts, dense and lte."""
    size = run.size
    corpus, ckpt = build_serving_setup(run)
    setup_s = statistics.median(run.extra["setup_s_at_reference"])
    bundle = checkpoint.load_checkpoint(ckpt)
    packed = packed_layers(bundle)
    val = config.load_corpus(corpus).val
    span = size.prompt_len + size.gen_len
    starts = np.random.default_rng(run.seed).integers(0, len(val) - span, size=10_000)
    paths = {"dense": dict(ffn_mode="dense"), "lte": lte_kwargs(bundle, packed)}
    lat = {"dense": [], "lte": []}
    rates = {"dense": [], "lte": []}
    ref = {"dense": [], "lte": []}
    outputs = []

    def one_prompt(k: int) -> dict:
        prompt = val[starts[k]:starts[k] + size.prompt_len]
        got = {}
        for path in (SERVE_PHASES if k % 2 == 0 else SERVE_PHASES[::-1]):
            slow = run.slowdown()
            with run.phase(path):
                seq, times = greedy(bundle, prompt, size.gen_len, paths[path])
            run.count(path, size.gen_len)
            run.check(seq.min() >= 0 and seq.max() < 256, f"{path} decode produced a non-byte")
            lat[path] += times
            rates[path].append(size.gen_len / sum(times))
            ref[path].append(size.gen_len * slow / sum(times))
            got[path] = (size.gen_len, sum(times))
            if path == "lte" and len(outputs) < size.check_prompts:
                outputs.append(seq)
        return got

    run.timed(one_prompt, seconds, minimum=size.min_prompts)

    # teacher-forced check: the masked-dense path must pick the same bytes
    agree = total = 0
    for seq in outputs:
        masked = model.forward_lm(bundle.params, seq[:-1], ffn_mode="moe_discrete",
                                  routers=bundle.routers, tau=0.5).logits.data
        pred = masked[size.prompt_len - 1:].argmax(axis=1)
        agree += int((pred == seq[size.prompt_len:]).sum())
        total += pred.shape[0]
    rate = agree / total
    run.check(rate >= MIN_DECODE_MATCH,
              f"greedy bytes match the masked-dense path at {rate:.3f} < {MIN_DECODE_MATCH}")
    windows = [val[int(s):int(s) + span].astype(np.int64) for s in starts[:size.check_windows]]
    check_gather_vs_masked(run, bundle, packed, [w[:-1] for w in windows])
    with no_grad():
        ce = [losses.task_loss(model.forward_lm(bundle.params, w[:-1],
                                                **lte_kwargs(bundle, packed)).logits.data, w[1:])
              for w in windows]

    ms = {p: np.asarray(v) * 1e3 for p, v in lat.items()}
    run.extra.update(
        decode_match_rate=rate, rates=rates, rates_at_reference=ref,
        decode_ms={p: {"p50": float(np.percentile(v, 50)), "p90": float(np.percentile(v, 90)),
                       "samples": int(v.size)} for p, v in ms.items()},
    )
    return {
        "setup_s": setup_s,
        "dense_tok_s": statistics.median(ref["dense"]),
        "lte_tok_s": statistics.median(ref["lte"]),
        "lte_loss": float(np.mean(ce)),
    }


WORKLOADS = {"train": workload_train, "eval": workload_eval, "decode": workload_decode}

