"""levypen benchmark: cold closed forms and Monte Carlo checks, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh interpreter
(``workloads.py``), one after another, while the next round still fits
in S seconds; at least one round always runs.  Every round repeats the
same operations on the same seed-derived inputs.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts operations over all rounds and ``failed`` those
that raised or failed their output check.  ``correct`` is false when
two rounds disagree on any output: levypen promises bit-identical
results at a fixed seed.

With ``--trace 0`` the metrics are the end-to-end medians over rounds.
With ``--trace 1`` rounds alternate untraced and traced, starting
untraced; the metrics are the per-layer medians over the traced rounds
plus ``trace.overhead_ratio``, traced over untraced ``wall_s``.  Names
and units are those of ``BENCHMARK.json``.
The exit code is 0 only when every round ran to its end.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run, rounds included, ends within this many seconds or fails
RUN_TIMEOUT_S = 170



class RoundError(RuntimeError):
    """A round did not run to its end."""


def run_round(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One fresh interpreter running the workload's operations once."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if traced else [])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round did not end within {timeout:.0f} s") from exc
    ended_at = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["first_op_at"] - spawned_at
    out["round_s"] = ended_at - spawned_at
    out["traced"] = traced
    return out


def op_latencies(rounds: list[dict]) -> list[float]:
    """Median latency of each operation over the rounds.

    Taken per operation, the median drops a slow spell of the machine
    that hit one operation in one round and another operation in the next.
    """
    return [statistics.median(r["ops"][k]["latency_s"] for r in rounds)
            for k in range(len(rounds[0]["ops"]))]


def end_to_end(rounds: list[dict]) -> dict:
    lat = op_latencies(rounds)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": sum(lat),
        "first_op_s": lat[0],
        "op_p50_s": statistics.median(lat),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
    }


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = sum(op_latencies(traced)) / sum(op_latencies(plain))
    return out


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not 0 < args.seconds <= RUN_TIMEOUT_S - 30:
        ap.error(f"--seconds must lie in (0, {RUN_TIMEOUT_S - 30}]")

    began = time.monotonic()
    rounds: list[dict] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        try:
            rounds.append(run_round(args.workload, args.seed, traced,
                                    RUN_TIMEOUT_S - (time.monotonic() - began)))
        except RoundError as exc:
            print(f"{args.workload} seed {args.seed}: {exc}", file=sys.stderr)
            return 1
        for op in rounds[-1]["ops"]:
            for problem in op["problems"]:
                print(f"FAILED {op['name']}: {problem}", file=sys.stderr)
        # a traced run needs an untraced and a traced round
        if args.trace and len(rounds) < 2:
            continue
        longest = max(r["round_s"] for r in rounds)
        if time.monotonic() - began + longest > args.seconds:
            break

    digests = [[op["digest"] for op in r["ops"]] for r in rounds]
    result = {
        "correct": all(d == digests[0] for d in digests),
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(1 for r in rounds for op in r["ops"] if op["problems"]),
    }
    values = per_layer(rounds) if args.trace else end_to_end(rounds)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        print(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    walls = " ".join(f"{sum(op['latency_s'] for op in r['ops']):.3f}{'t' if r['traced'] else ''}"
                     for r in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, wall_s {walls}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
