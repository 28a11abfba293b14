"""`tools/pipeline_digest.py` on the working tree: two runs print the same digests.

This covers the swiglu pipeline's byte determinism, which criterion 10 does
not run, and the tool itself.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(out: Path) -> list[str]:
    res = subprocess.run([sys.executable, "tools/pipeline_digest.py", "--src", str(ROOT),
                          "--out", str(out)], cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-4000:]
    return res.stdout.splitlines()


def test_two_runs_print_identical_digests(tmp_path):
    first, second = digest(tmp_path / "a"), digest(tmp_path / "b")
    assert first == second
    labels = [line.split("  ", 1)[1] for line in first]
    for kind in ("two_matmul", "swiglu"):
        for ckpt in ("base", "moefied", "stage1", "stage2"):
            assert f"{kind}/{ckpt}.ckpt#manifest" in labels
            assert f"{kind}/{ckpt}.ckpt#tensors" in labels
        assert f"{kind}/results.tsv" in labels
        assert f"{kind}/serving_logits.f32" in labels
        # three ways at T=1, T=40, a (4, 64) batch and T=100, 256 float32 logits a row
        rows = 1 + 40 + 4 * 64 + 100
        assert (tmp_path / "a" / kind / "serving_logits.f32").stat().st_size == 3 * rows * 256 * 4
