"""Write the raw logits of a stage-2 checkpoint at serving shapes.

    PYTHONPATH=CHECKOUT/src python tools/serving_logits.py CKPT CORPUS TAU OUT

Runs `forward_lm` on token windows cut from the CORPUS bytes, at T=1, T=40,
as a (4, 64) batch and at T=100 (past one 64-wide K block of attention's
context product), three ways: dense without a graph, `lte` without a
graph (the packed gather path that eval and decode run) and `lte` with a
graph (the union kernel's graph op that stage 2 trains through), both `lte`
ways thresholding at TAU. It writes every logits array in that order as
little-endian float32 bytes to OUT. Only the public entries that a
benchmark caller uses are called, so the same script runs against any
checkout's `src`; `tools/pipeline_digest.py` runs it that way.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from moefy.autograd import no_grad
from moefy.checkpoint import load_checkpoint
from moefy.model import forward_lm, get_ffn_layer
from moefy.sparse_exec import pack


def windows(corpus: bytes) -> list[np.ndarray]:
    """T=1, T=40, a (4, 64) batch and T=100 of byte tokens from fixed corpus offsets."""
    data = np.frombuffer(corpus, dtype=np.uint8).astype(np.int64)
    return [data[7:8], data[100:140], data[1000:1256].reshape(4, 64), data[2000:2100]]


def main(argv: list[str]) -> int:
    ckpt, corpus, tau, out = argv
    bundle = load_checkpoint(ckpt)
    params, parts = bundle.params, bundle.partitions
    packed = [pack(get_ffn_layer(params, i, partition=p)) for i, p in enumerate(parts)]
    lte = dict(ffn_mode="moe_discrete", routers=bundle.routers, tau=float(tau))
    logits = []
    for tokens in windows(Path(corpus).read_bytes()):
        with no_grad():
            logits.append(forward_lm(params, tokens).logits.data)
            logits.append(forward_lm(params, tokens, partitions=parts, packed=packed,
                                     **lte).logits.data)
        logits.append(forward_lm(params, tokens, **lte).logits.data)
    Path(out).write_bytes(b"".join(np.asarray(z, dtype="<f4").tobytes() for z in logits))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
