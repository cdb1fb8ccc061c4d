"""Time the walker of two source trees side by side in one process.

    python3 tools/ab_walk.py TREE_A TREE_B [--rounds 20] [--preload MODULE ...]

Each TREE is a checkout, a directory holding ``src/levypen``.  Both
packages are imported into this one interpreter under distinct names, so
they share its allocator, its loaded modules and its CPU.  Each round
times ``walk_ensemble`` alone, with no check around it, on three walks
of ``bench/workloads.py`` at round seed 1, each on the streams of its
check:

* ``hit``: the first ``mc-identities`` operation, Brownian motion from 0
  until it hits 1 or -2, 1000 paths at dt 2.5e-4 and horizon 20;
* ``threshold``: the ``mc-identities`` Laplace operation, Brownian motion
  from 0 until its local time at 0 reaches 0.5, 1000 paths at dt 2.5e-4
  and horizon 10;
* ``snapshot``: the ``mc-penalization`` martingale operation of
  stable(1.5) with rates (1, 1), from 2 with snapshots at t = 0.1 and 0.5,
  2000 paths at dt 1e-3 and horizon 0.55.

Every round walks the same streams.  Rounds alternate A B, B A, ..., so
a drift of the machine's speed hits both trees alike, after one untimed
warm-up walk per tree and walk.  The two trees' final states must agree
bit for bit, or the tool stops.  ``--preload`` imports modules (say
``scipy.integrate``) before the trees, to see whether a module in the
process moves the walk's speed.

The last line of standard output is one JSON object with, per walk, the
wall times of each tree's rounds with their median and quartiles, the
ratio of the medians B/A, the median over rounds of each round's ratio
B/A, the number of rounds in which B was faster, and each tree's minor
page faults per walk (the ``ru_minflt`` delta of each round, this
process's plus that of the children a walk forks and reaps, with their
median).  A cause in the code shows as a ratio away from 1; a cause in
the process around the walk (its loaded modules) does not show here,
and one in its memory layout shows in the fault counts.
It takes about three minutes per 20 rounds on a 2-vCPU machine and is
not part of the test suite.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# walk -> (model, x0, dt, horizon, n_paths, master seed, stream tag, plan fields)
WALKS = {
    "hit": ("brownian", 0.0, 2.5e-4, 20.0, 1000, 100, "_TAG_HC",
            {"tracked_levels": (0.0,), "hit_levels": (1.0, -2.0),
             "stop_hit_levels": (1.0, -2.0)}),
    "threshold": ("brownian", 0.0, 2.5e-4, 10.0, 1000, 103, "_TAG_LAPLACE",
                  {"tracked_levels": (0.0,), "lt_level": 0.0, "lt_thresholds": (0.5,)}),
    "snapshot": ("stable", 2.0, 1e-3, 0.55, 2000, 105, "_TAG_MARTINGALE",
                 {"tracked_levels": (0.0, 1.0), "snapshot_steps": (100, 500)}),
}


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


def minor_faults() -> int:
    """Minor page faults of this process and of every child it has reaped."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def walk(tree, shape: str) -> tuple[float, int, list]:
    """Wall time and minor page faults of one ensemble walk, and every path's final state."""
    pathsim, models, verify = tree
    kind, x0, dt, horizon, n_paths, seed, tag, plan = WALKS[shape]
    model = models.brownian(1.0) if kind == "brownian" else models.symmetric_stable(1.5)
    grid = pathsim.SimGrid(dt=dt, horizon=horizon)
    plan = pathsim.PathPlan(**plan)
    faults = minor_faults()
    t0 = time.perf_counter()
    f = pathsim.walk_ensemble(model, x0, grid, plan, seed, getattr(verify, tag), n_paths).final
    elapsed = time.perf_counter() - t0
    faults = minor_faults() - faults
    return elapsed, faults, list(zip(f.step.tolist(), f.x.tolist(), f.local_times.tolist()))


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
    finals = {}
    for shape in WALKS:
        finals[shape] = {side: walk(tree, shape)[2] for side, tree in trees.items()}
        if finals[shape]["a"] != finals[shape]["b"]:
            print(f"the two trees walk different paths on the {shape} walk", file=sys.stderr)
            return 1

    times = {shape: {"a": [], "b": []} for shape in WALKS}
    faults = {shape: {"a": [], "b": []} for shape in WALKS}
    for k in range(args.rounds):
        for shape in WALKS:
            for side in ("a", "b") if k % 2 == 0 else ("b", "a"):
                elapsed, flt, final = walk(trees[side], shape)
                if final != finals[shape][side]:
                    print(f"tree {side} walked other paths on the {shape} walk in round {k}",
                          file=sys.stderr)
                    return 1
                times[shape][side].append(elapsed)
                faults[shape][side].append(flt)
        print(f"round {k}: " + ", ".join(
            f"{shape} a {t['a'][-1]:.3f} s b {t['b'][-1]:.3f} s" for shape, t in times.items()),
            file=sys.stderr, flush=True)
    out = {"trees": {"a": str(args.tree_a), "b": str(args.tree_b)},
           "preload": args.preload, "walks": {}}
    for shape, t in times.items():
        res = {"a": summary(t["a"]), "b": summary(t["b"])}
        res["b_over_a"] = res["b"]["median"] / res["a"]["median"]
        res["b_over_a_per_round"] = statistics.median(b / a for a, b in zip(t["a"], t["b"]))
        res["b_faster_in"] = sum(b < a for a, b in zip(t["a"], t["b"]))
        res["minor_faults"] = {side: {"runs": f, "median": statistics.median(f)}
                               for side, f in faults[shape].items()}
        out["walks"][shape] = res
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
