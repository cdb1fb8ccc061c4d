"""Time the walker of two source trees side by side in one process.

    python3 tools/ab_walk.py TREE_A TREE_B [--rounds 20] [--preload MODULE ...]

Each TREE is a checkout, a directory holding ``src/levypen``.  Both
packages are imported into this one interpreter under distinct names, so
they share its allocator, its loaded modules and its CPU.  Each round
times ``walk_ensemble`` alone, with no check around it, on the plan of
the first ``mc-identities`` operation of ``bench/workloads.py`` at round
seed 1: Brownian motion from 0 until it hits 1 or -2, 1000 paths at
dt 2.5e-4 and horizon 20, master seed 100 and the stream tag of
``check_identity_local_time_until_either_hit``.  Every round walks the
same streams.  Rounds alternate A B, B A, ..., so a drift of the
machine's speed hits both trees alike, after one untimed warm-up walk
per tree.  The two trees' final states must agree bit for bit, or the
tool stops.  ``--preload`` imports modules (say ``scipy.integrate``)
before the trees, to see whether a module in the process moves the
walk's speed.

The last line of standard output is one JSON object: per tree the wall
times of the rounds with their median and quartiles, the ratio of the
medians B/A, the median over rounds of each round's ratio B/A, and the
number of rounds in which B was faster.  A cause in the code shows as a
ratio away from 1; a cause in the process around the walk (its loaded
modules, its memory layout) does not show here.
It takes about a minute per 20 rounds on a 2-vCPU machine and is not
part of the test suite.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

N_PATHS = 1000
DT = 2.5e-4
HORIZON = 20.0
MASTER_SEED = 100
LEVELS = (1.0, -2.0)


def load(tree: Path, name: str):
    """The ``pathsim``, ``models`` and ``verify`` modules of ``tree/src/levypen``."""
    pkg = tree / "src" / "levypen"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{sub}")
                 for sub in ("pathsim", "models", "verify"))


def walk(tree) -> tuple[float, list]:
    """Wall time of one ensemble walk and the final state of every path."""
    pathsim, models, verify = tree
    grid = pathsim.SimGrid(dt=DT, horizon=HORIZON)
    plan = pathsim.PathPlan(tracked_levels=(0.0,), hit_levels=LEVELS,
                            stop_hit_levels=LEVELS)
    model = models.brownian(1.0)
    t0 = time.perf_counter()
    records = list(pathsim.walk_ensemble(model, 0.0, grid, plan, MASTER_SEED,
                                         verify._TAG_HC, N_PATHS))
    elapsed = time.perf_counter() - t0
    return elapsed, [(r.final.step, r.final.x, r.final.local_times.tolist())
                     for r in records]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--preload", action="append", default=[])
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    for module in args.preload:
        importlib.import_module(module)
    trees = {"a": load(args.tree_a.resolve(), "levypen_a"),
             "b": load(args.tree_b.resolve(), "levypen_b")}
    finals = {side: walk(tree)[1] for side, tree in trees.items()}
    if finals["a"] != finals["b"]:
        print("the two trees walk different paths", file=sys.stderr)
        return 1

    times = {"a": [], "b": []}
    for k in range(args.rounds):
        for side in ("a", "b") if k % 2 == 0 else ("b", "a"):
            elapsed, final = walk(trees[side])
            if final != finals[side]:
                print(f"tree {side} walked other paths in round {k}", file=sys.stderr)
                return 1
            times[side].append(elapsed)
        print(f"round {k}: a {times['a'][-1]:.3f} s, b {times['b'][-1]:.3f} s",
              file=sys.stderr, flush=True)
    out = {"trees": {"a": str(args.tree_a), "b": str(args.tree_b)},
           "preload": args.preload,
           "a": summary(times["a"]), "b": summary(times["b"])}
    out["b_over_a"] = out["b"]["median"] / out["a"]["median"]
    out["b_over_a_per_round"] = statistics.median(
        b / a for a, b in zip(times["a"], times["b"]))
    out["b_faster_in"] = sum(b < a for a, b in zip(times["a"], times["b"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
