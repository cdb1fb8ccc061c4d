"""Benchmark two checkouts against each other in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs N [--out BENCH.json]

For every workload of the change's ``BENCHMARK.json`` and every pair
k = 1..N, runs ``python3 bench/run.py --workload W --seed k --seconds T``
once in each checkout, with T the file's ``run_seconds``; the parent
goes first in odd pairs and the change in even ones, so a drift of the
machine's speed hits both sides alike.  It also runs one round of
``bench/workloads.py`` per side at seed 1 and compares the per-operation
output digests.  Last, it runs tier-1 (the test suite, acceptance
criteria included) once in each checkout with output shown, and records
its wall time, its summary line and each acceptance criterion's
``[PASS|FAIL] criterion N: ... (E s of B)`` line, elapsed against budget.

The JSON written to ``--out`` holds, per workload and end-to-end metric,
each side's runs, median and quartiles, the change's win count (ties
count for neither), whether the gain rule holds (wins in at least nine
tenths of the pairs and medians further apart than the parent's
quartile spread) and whether the change's median stays within the
metric's bound.  Runs proceed one at a time, so the two sides never
share the machine; within a run, levypen may walk an ensemble on every
CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the tier-1 command of ROADMAP.md, with the tests' output shown
TIER1 = ["-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
# pytest -q prints a test's output after its progress dots, on the same line
CRITERION = re.compile(r"\[(?:PASS|FAIL)\] criterion (\S+): .*")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in a checkout: its JSON result and exit code."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    out["returncode"] = proc.returncode
    return out


def digests(checkout: Path, workload: str, seed: int) -> list[str] | None:
    """Per-operation output digests of one round, or None if it failed."""
    cmd = [sys.executable, "bench/workloads.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return [op["digest"] for op in json.loads(proc.stdout.strip().splitlines()[-1])["ops"]]


def tier1(checkout: Path) -> dict:
    """One tier-1 run in a checkout: wall time, summary line and acceptance lines."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    return {"returncode": proc.returncode, "wall_s": wall,
            "summary": lines[-1] if lines else "",
            "criteria": {m[1]: m[0] for line in lines if (m := CRITERION.search(line))}}


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    """Both sides of one metric over the pairs where both runs succeeded."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(parent, change) if "metrics" in p and "metrics" in c]
    if not pairs:
        return {"pairs": 0}
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    base, new = summary(ps), summary(cs)
    sign = 1.0 if lower else -1.0
    gain = sign * (base["median"] - new["median"])
    return {
        "unit": metric["unit"], "better": metric["better"], "pairs": len(pairs),
        "parent": base, "change": new, "change_wins": wins,
        "change_over_parent": new["median"] / base["median"] if base["median"] else None,
        "gain": wins >= 0.9 * len(pairs) and gain > base["q3"] - base["q1"],
        "within_bound": -gain <= metric["bound"] * abs(base["median"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "bench" / "run.py").is_file():
            ap.error(f"{side} checkout {path} has no bench/run.py")

    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]

    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                t0 = time.monotonic()
                runs[side].append(run_bench(sides[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: "
                      f"exit {runs[side][-1]['returncode']} in {time.monotonic() - t0:.0f} s",
                      file=sys.stderr, flush=True)
        outputs = {side: digests(path, workload, 1)
                   for side, path in sides.items()}
        report["workloads"][workload] = {
            "runs": {side: [{k: r.get(k) for k in ("returncode", "correct", "attempted",
                                                    "failed")} for r in rs]
                     for side, rs in runs.items()},
            "digests_equal": outputs["parent"] is not None
                             and outputs["parent"] == outputs["change"],
            "metrics": {m["name"]: compare(m, runs["parent"], runs["change"])
                        for m in declared["end_to_end"]},
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    report["tier1"] = {}
    for side, path in sides.items():
        report["tier1"][side] = tier1(path)
        print(f"tier-1 {side}: {report['tier1'][side]['summary']}", file=sys.stderr, flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
