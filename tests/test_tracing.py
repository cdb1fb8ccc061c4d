"""The benchmark finds every entry point it calls or wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# one traced walk: the tracer counts its steps from ``final_step``, which
# must stay one int for the record of a walk
TRACED_WALK = """
import tracing
from levypen import models, pathsim
tracer = tracing.Tracer()
tracing.install(tracer)
grid = pathsim.SimGrid(dt=0.01, horizon=1.0)
rec = pathsim.walk_one(models.brownian(1.0), 0.0, grid, pathsim.PathPlan(),
                       pathsim.path_stream(1, 2, 3))
metrics = tracer.metrics()
assert type(rec.final_step) is int, rec.final_step
assert metrics["pathsim.steps"] == rec.final_step == grid.n_steps, metrics
assert metrics["pathsim.useful_step_ratio"] == 1.0, metrics
"""


def test_bench_tracer_installs():
    # bench/tracing.install wraps names where their callers look them up,
    # such as verify.walk_one and resolvent.quad; deleting one of them
    # breaks traced benchmark runs, which the test suite does not start
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    proc = subprocess.run([sys.executable, "-c", TRACED_WALK],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["closed-forms", "mc-identities", "mc-penalization"])
def test_bench_round_has_no_failed_operation(workload):
    # one round of a benchmark workload calls levypen by the names bench/
    # uses; a renamed entry point or an operation that raises shows here as
    # an operation with problems
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "workloads.py"),
                           "--workload", workload, "--seed", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(proc.stdout.strip().splitlines()[-1])["ops"]
    assert ops and not [(op["name"], op["problems"]) for op in ops if op["problems"]]
