"""The names that the benchmark's per-layer tracer wraps must exist.

`bench/layers.py` wraps `brq` functions by module path; a renamed or
deleted name would break `bench/run.py --trace 1` without failing anything
else.  This test installs the tracer in a fresh interpreter, as the
benchmark does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_installs_on_every_wrapped_name():
    code = ("import brq, brq.brauer, brq.cohomology, brq.cli\n"
            "import layers\n"
            "layers.Tracer().install()\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench", env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
