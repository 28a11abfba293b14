"""The benchmark's own smoke test, so a change under src/ that breaks its
observers or its metric contract fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    res = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=900)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-4000:]
