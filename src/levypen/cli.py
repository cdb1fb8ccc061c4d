"""Command-line front end: tabulate formulas, run checks, dump paths.

Subcommands
-----------
table       tabulate h, tilted h, the martingale factor and the exit-order
            probability over an x grid (CSV)
verify      run verification suites and write a JSON report; exit status 0
            iff every selected check passed
simulate    dump simulated paths as CSV files, one per path
estimate-h  Monte Carlo estimate of the inverse-clock decay rate (JSON)

Configuration is a plain INI file with sections [model], [params],
[grid], [mc] and [output]; the literal token ``inf`` selects an infinite
local-time rate.  ``--seed`` overrides the configured seed, ``--out``
the output directory.  All numeric output uses full round-trip decimal
precision, and a fixed seed reproduces reports byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path as FsPath

import numpy as np

from . import verify as vf
from .models import LevyModel, brownian, jump_diffusion, symmetric_stable
from .pathsim import MCConfig, SimGrid, path_stream, simulate_path
from .penalization import (MCDegenerateError, PenalizationParams,
                           estimate_decay_rate, martingale_factor, prob_hit_before)
from .resolvent import ResolventError, tilted_zero_resolvent, zero_resolvent

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

_SUITES = ("identities", "martingales", "limits", "inverse-clock")


class ConfigError(Exception):
    """Unusable run configuration; message names the offending key."""


@dataclass
class RunConfig:
    """Parsed configuration of one CLI invocation."""

    model: LevyModel
    params: PenalizationParams
    grid: SimGrid
    n_paths: int
    seed: int
    z: float
    censor_budget: float
    out_dir: str

    def mc(self) -> MCConfig:
        return MCConfig(n_paths=self.n_paths, master_seed=self.seed, grid=self.grid,
                        z=self.z, censor_budget=self.censor_budget)


def _get(cp: configparser.ConfigParser, section: str, key: str, cast, default=None):
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing [{section}] {key}")
    raw = cp.get(section, key)
    try:
        if cast is float and raw.strip().lower() == "inf":
            return math.inf
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse an INI config; failures carry the section, key or line number."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    kind = _get(cp, "model", "kind", str).strip().lower()
    try:
        if kind == "brownian":
            model = brownian(_get(cp, "model", "sigma", float, 1.0))
        elif kind == "stable":
            model = symmetric_stable(_get(cp, "model", "alpha", float))
        elif kind == "jump-diffusion":
            model = jump_diffusion(_get(cp, "model", "sigma", float),
                                   _get(cp, "model", "jump_rate", float),
                                   _get(cp, "model", "p_plus", float),
                                   _get(cp, "model", "p_minus", float))
        else:
            raise ConfigError(f"unknown model kind {kind!r}")
        params = PenalizationParams(
            a=_get(cp, "params", "a", float),
            b=_get(cp, "params", "b", float),
            lambda_a=_get(cp, "params", "lambda_a", float),
            lambda_b=_get(cp, "params", "lambda_b", float),
            gamma=_get(cp, "params", "gamma", float, 0.0),
        )
        grid = SimGrid(dt=_get(cp, "grid", "dt", float),
                       horizon=_get(cp, "grid", "horizon", float),
                       eps=_get(cp, "grid", "eps", float, 0.0))
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        model=model, params=params, grid=grid,
        n_paths=_get(cp, "mc", "n_paths", int, 1000),
        seed=_get(cp, "mc", "seed", int, 20240),
        z=_get(cp, "mc", "z", float, 3.0),
        censor_budget=_get(cp, "mc", "censor_budget", float, 0.25),
        out_dir=_get(cp, "output", "directory", str, "out"),
    )


def _load_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config is required")
    text = FsPath(args.config).read_text()
    cfg = parse_config(text)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def cmd_table(cfg: RunConfig, x_grid: list[float], out) -> None:
    """One CSV row per x: h, tilted h, martingale factor, exit-order prob."""
    model, p = cfg.model, cfg.params
    out.write("x,h,h_gamma,phi,hitting_prob\n")
    for x in x_grid:
        x = float(x)
        hv = zero_resolvent(model, x)
        hg = tilted_zero_resolvent(model, p.gamma, x)
        phi = martingale_factor(model, p, x)
        hp = prob_hit_before(model, x, p.a, p.b)
        out.write(f"{x!r},{hv!r},{hg!r},{phi!r},{hp!r}\n")


def _suite_reports(cfg: RunConfig, selector: list[str]) -> list[vf.CheckReport]:
    model, p, mc = cfg.model, cfg.params, cfg.mc()
    reports: list[vf.CheckReport] = []
    if "identities" in selector:
        a = p.a if p.a != 0.0 else 1.0
        b = p.b if p.b not in (0.0, a) else -2.0
        reports.append(vf.check_identity_local_time_until_hit(model, a, mc))
        reports.append(vf.check_identity_local_time_until_either_hit(model, a, b, mc))
        reports.append(vf.check_inverse_lt_laplace(model, 1.0, 0.5, mc))
    if "martingales" in selector:
        x0 = _admissible_start(model, p)
        reports.extend(vf.check_martingale(model, p, (0.1, min(0.5, cfg.grid.horizon)),
                                           x0, mc))
    if "limits" in selector:
        x0 = _admissible_start(model, p)
        # the slowest clock must still ring within the configured horizon
        q_lo = 3.0 / cfg.grid.horizon
        fam = vf.ExponentialClockFamily(qs=(10.0 * q_lo, q_lo))
        functional = vf.IndicatorAbove(x0)
        reports.extend(vf.check_penalization_limit(
            model, p, fam, functional, min(0.25, cfg.grid.horizon), x0, mc))
    if "inverse-clock" in selector:
        c, weight = _inverse_clock_setup(p)
        reports.extend(vf.check_inverse_clock_martingale(
            model, weight, c, (0.1, min(0.25, cfg.grid.horizon)), c, mc))
    return reports


def _admissible_start(model: LevyModel, p: PenalizationParams) -> float:
    lo, hi = min(p.a, p.b), max(p.a, p.b)
    for x0 in (hi + (hi - lo), lo - (hi - lo), hi + 1.0, lo - 1.0):
        if martingale_factor(model, p, x0) > 0:
            return x0
    raise ConfigError("no admissible start with a positive martingale factor found")


def _inverse_clock_setup(p: PenalizationParams) -> tuple:
    """Clock level off both points, and the params with an infinite rate read as 1."""
    c = 0.0
    while c in (p.a, p.b):
        c -= 1.0
    la, lb = (lam if math.isfinite(lam) else 1.0 for lam in (p.lambda_a, p.lambda_b))
    return c, replace(p, lambda_a=la, lambda_b=lb)


def cmd_verify(cfg: RunConfig, selector: list[str], out_dir: FsPath) -> int:
    for token in selector:
        if token not in _SUITES:
            raise ConfigError(f"unknown suite {token!r}; choose from {_SUITES}")
    reports = _suite_reports(cfg, selector)
    doc = {
        "config": {"seed": cfg.seed, "n_paths": cfg.n_paths,
                   "model": cfg.model.config_items()},
        "suites": sorted(selector),
        "reports": [r.to_dict() for r in reports],
        # intermediate rows of a convergence table are informational;
        # verdicts sit on the rows flagged final (the default for plain checks)
        "all_pass": all(r.passed for r in reports
                        if r.metadata.get("final", True)),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.name}: estimate={r.estimate!r} target={r.target!r} "
              f"stderr={r.stderr!r} censored={r.censored_fraction!r}")
    print(f"report written to {path}")
    return EXIT_OK if doc["all_pass"] else EXIT_CHECK_FAILED


def cmd_simulate(cfg: RunConfig, n: int, out_dir: FsPath) -> None:
    """Write n path dumps: time, position, one local-time column per level."""
    if n < 1:
        raise ConfigError("need at least one path")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracked = sorted({cfg.params.a, cfg.params.b, 0.0})
    for i in range(n):
        stream = path_stream(cfg.seed, 7, i)
        path = simulate_path(cfg.model, 0.0, cfg.grid, tracked, stream)
        file = out_dir / f"path_{i:04d}.csv"
        with file.open("w") as fh:
            cols = ",".join(f"lt_{lv!r}" for lv in path.tracked_levels)
            fh.write(f"time,value,{cols}\n")
            lts = [path.local_times[lv] for lv in path.tracked_levels]
            for k, t in enumerate(path.times):
                row = ",".join(repr(float(lt[k])) for lt in lts)
                fh.write(f"{float(t)!r},{float(path.values[k])!r},{row}\n")
        print(f"wrote {file}")


def cmd_estimate_h(cfg: RunConfig, u0: float, out_dir: FsPath) -> None:
    c, weight = _inverse_clock_setup(cfg.params)
    est = estimate_decay_rate(cfg.model, weight, c, cfg.mc(), u0=u0)
    doc = {
        "estimate": est.estimate,
        "stderr": est.stderr,
        "u_grid": list(est.u_grid),
        "log_means": list(est.log_means),
        "log_stderrs": list(est.log_stderrs),
        "residuals": list(est.residuals),
        "survivors": list(est.survivors),
        "censored_fraction": est.censored_fraction,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "decay_rate.json").write_text(text + "\n")


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="INI run configuration")
    shared.add_argument("--seed", type=int, default=None, help="override the config seed")
    shared.add_argument("--out", default=None, help="override the output directory")

    ap = argparse.ArgumentParser(prog="levypen",
                                 description="Penalization functionals of recurrent "
                                             "Levy processes and their MC verification")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", parents=[shared], help="tabulate the closed forms")
    t.add_argument("--x-grid", default="", help="comma-separated x values")
    t.add_argument("--x-linspace", default=None,
                   help="lo,hi,count alternative to --x-grid")

    v = sub.add_parser("verify", parents=[shared], help="run verification suites")
    v.add_argument("--suite", default=",".join(_SUITES),
                   help=f"comma-separated subset of {_SUITES}")

    s = sub.add_parser("simulate", parents=[shared], help="dump simulated paths")
    s.add_argument("-n", type=int, default=1, help="number of paths")

    e = sub.add_parser("estimate-h", parents=[shared],
                       help="estimate the inverse-clock decay rate")
    e.add_argument("--u0", type=float, default=1.0, help="center of the budget grid")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out_dir = FsPath(cfg.out_dir)
        if args.command == "table":
            xs = []
            if args.x_linspace:
                lo, hi, count = args.x_linspace.split(",")
                xs = list(np.linspace(float(lo), float(hi), int(count)))
            if args.x_grid.strip():
                xs += [float(tok) for tok in args.x_grid.split(",")]
            cmd_table(cfg, xs, sys.stdout)
            return EXIT_OK
        if args.command == "verify":
            selector = [tok.strip() for tok in args.suite.split(",") if tok.strip()]
            return cmd_verify(cfg, selector, out_dir)
        if args.command == "simulate":
            cmd_simulate(cfg, args.n, out_dir)
            return EXIT_OK
        if args.command == "estimate-h":
            cmd_estimate_h(cfg, args.u0, out_dir)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError, ValueError, MCDegenerateError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResolventError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
