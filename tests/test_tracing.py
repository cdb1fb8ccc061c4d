"""The benchmark's tracer finds every entry point it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_installs():
    # bench/tracing.install wraps names where their callers look them up,
    # such as verify.walk_one and resolvent.quad; deleting one of them
    # breaks traced benchmark runs, which the test suite does not start
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    proc = subprocess.run([sys.executable, "-c",
                           "import tracing; tracing.install(tracing.Tracer())"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
