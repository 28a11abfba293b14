"""Run a small fixed moefy pipeline from a source checkout and print artifact digests.

    python tools/pipeline_digest.py --src CHECKOUT --out DIR

CHECKOUT is a repository root (its `src/` is put on PYTHONPATH). The script
writes one synthetic corpus, then for each FFN kind (`two_matmul`, `swiglu`)
runs train-base, moefy, train-lte stage 1 and stage 2, eval with `lte` then
`dense`, and report (`report.txt` and both SVGs), each as its own
`python -m moefy.cli` process. Then `tools/serving_logits.py`, run with
the checkout's `src`, writes `serving_logits.f32`: the stage-2
checkpoint's raw dense and `lte` logits (without and with a graph) at T=1,
T=40, a (4, 64) batch and T=100. It prints one `sha256  path` line per
artifact, sorted by path. A checkpoint gets two lines instead, `path#manifest`
(magic, length and JSON manifest) and `path#tensors` (the tensor blob), so a
change to the manifest alone still shows identical tensor bytes. Two
checkouts produce byte-identical artifacts exactly when

    diff <(python tools/pipeline_digest.py --src A --out /tmp/a) \\
         <(python tools/pipeline_digest.py --src B --out /tmp/b)

is empty. DIR must be empty or absent. BLAS runs on one thread
(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1), so the digests do not depend on
the host's core count. Stage 1 runs at
eta=0.3, tau=0.48, which keeps about half the experts, so stage 2 trains on
mixed masks and the lte eval and report run the gather path. Eval and report
read 40 windows of 64 bytes, more than one `analysis.EVAL_ROWS` chunk holds,
so the digests cover the chunked eval pass.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

FFN_KINDS = ("two_matmul", "swiglu")
SETTINGS = ("d_model=64", "n_layers=2", "d_ffn=256", "n_heads=4", "expert_size=16",
            "seq_len=64", "max_seq_len=128", "lr=0.003", "batch_size=4", "eval_windows=40",
            "eta=0.3", "tau=0.48")
TAU = dict(s.split("=") for s in SETTINGS)["tau"]


SERVING_LOGITS = Path(__file__).resolve().parent / "serving_logits.py"


def _run(src: Path, *argv: str) -> None:
    """Run `python argv...` with the checkout's `src` on the path and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)


def _cli(src: Path, *argv: str) -> None:
    _run(src, "-m", "moefy.cli", *argv)


def run_pipeline(src: Path, out: Path) -> list[Path]:
    """Write every artifact under `out` and return their paths."""
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus.txt"
    _cli(src, "make-corpus", "--path", str(corpus), "--bytes", "60000", "--seed", "5")
    for kind in FFN_KINDS:
        d = out / kind
        common = ["--corpus", str(corpus), "--out-dir", str(d), "--seed", "3",
                  "--set", f"ffn_kind={kind}"]
        for s in SETTINGS:
            common += ["--set", s]
        _cli(src, "train-base", "--steps", "30", *common)
        _cli(src, "moefy", "--checkpoint", str(d / "base.ckpt"), *common)
        _cli(src, "train-lte", "--checkpoint", str(d / "moefied.ckpt"), "--stage", "1",
             "--steps", "12", *common)
        _cli(src, "train-lte", "--checkpoint", str(d / "stage1.ckpt"), "--stage", "2",
             "--steps", "6", *common)
        for method in ("lte", "dense"):
            _cli(src, "eval", "--checkpoint", str(d / "stage2.ckpt"), "--method", method,
                 *common)
        _cli(src, "report", "--checkpoint", str(d / "stage2.ckpt"), *common)
        _run(src, str(SERVING_LOGITS), str(d / "stage2.ckpt"), str(corpus), TAU,
             str(d / "serving_logits.f32"))
    return sorted(p for p in out.rglob("*") if p.is_file())


def digest_lines(path: Path, name: str) -> list[str]:
    """`sha256  name` lines for one artifact; a checkpoint's manifest and blob apart."""
    raw = path.read_bytes()
    parts = [(name, raw)]
    if path.suffix == ".ckpt":
        (mlen,) = struct.unpack("<Q", raw[4:12])
        parts = [(f"{name}#manifest", raw[:12 + mlen]), (f"{name}#tensors", raw[12 + mlen:])]
    return [f"{hashlib.sha256(b).hexdigest()}  {label}" for label, b in parts]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, type=Path, help="repository root to run")
    ap.add_argument("--out", required=True, type=Path, help="directory for the artifacts")
    args = ap.parse_args(argv)
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        ap.error(f"--out {out} is not empty (the eval ledger appends)")
    for path in run_pipeline(args.src.resolve(), out):
        print("\n".join(digest_lines(path, path.relative_to(out).as_posix())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
