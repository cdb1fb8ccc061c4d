"""Write the command-line outputs of four fixed configurations to a directory.

Usage: python tools/outputs.py OUT_DIR

For each configuration in ``CONFIGS`` this runs ``levypen table``,
``levypen verify`` (all four suites), ``levypen simulate -n 2`` and
``levypen estimate-h`` with the ``levypen`` package of this checkout's
``src`` directory.  ``OUT_DIR/<config>/`` receives the configuration,
every file the commands write, their console output (``<command>.log``)
and their exit status (``<command>.status``).

It also writes ``OUT_DIR/ensembles/<model>.json``: the reports of
``check_penalization_limit`` for the five clock families in the regimes
(1, 2), (1, inf) and (inf, inf), of ``check_martingale`` in (1, 1),
(1, inf) and (inf, inf), and the ``estimate_decay_rate`` fit and the
``check_inverse_clock_martingale`` reports at clock level c = -1 in
(1, 2), (1, inf) and (inf, inf), on Brownian motion, stable(1.5) and
``jump_diffusion(1, 1, 1, 2)``, each on a small ensemble; a set-up that
raises records its error instead.  (The command line reaches the
inverse clock with finite rates only: it reads an infinite rate as 1.)

Run it on two commits and compare the two directories with ``diff -r``
to see which outputs a change moved.  It takes about 20 s on a 2-vCPU
machine and is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from levypen import cli, models, verify  # noqa: E402
from levypen.pathsim import MCConfig, SimGrid  # noqa: E402
from levypen.penalization import PenalizationParams, estimate_decay_rate  # noqa: E402

_GRID_MC = """
[grid]
dt = 1e-3
horizon = 10.0

[mc]
n_paths = 200
seed = 2024
"""

# 10,000 steps per path: the simulate dumps span more than one walker chunk
CONFIGS = {
    "brownian-1-inf-tilt": """
[model]
kind = brownian
sigma = 1.0

[params]
a = 0.0
b = 1.0
lambda_a = 1.0
lambda_b = inf
gamma = 0.5
""",
    "brownian-1-2": """
[model]
kind = brownian
sigma = 1.0

[params]
a = 0.0
b = 1.0
lambda_a = 1.0
lambda_b = 2.0
""",
    "stable-inf-inf": """
[model]
kind = stable
alpha = 1.5

[params]
a = 0.0
b = 1.0
lambda_a = inf
lambda_b = inf
""",
    "jump-diffusion-1-inf": """
[model]
kind = jump-diffusion
sigma = 1.0
jump_rate = 1.0
p_plus = 1.0
p_minus = 2.0

[params]
a = 0.0
b = 1.0
lambda_a = 1.0
lambda_b = inf
""",
}

COMMANDS = {
    "table": ["table", "--x-linspace=-3,3,13", "--x-grid=0.25,-0.5,7.5"],
    "verify": ["verify"],
    "simulate": ["simulate", "-n", "2"],
    "estimate-h": ["estimate-h"],
}


def run(config_dir: Path, command: str) -> None:
    """Run one command inside ``config_dir``; outputs go to ``./<command>``."""
    log = io.StringIO()
    cwd = os.getcwd()
    os.chdir(config_dir)
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            status = cli.main([*COMMANDS[command], "--config", "run.ini", "--out", command])
    except Exception as exc:  # an uncaught failure is an output too
        status = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    (config_dir / f"{command}.log").write_text(log.getvalue())
    (config_dir / f"{command}.status").write_text(f"{status}\n")


ENSEMBLE_MODELS = {
    "brownian": models.brownian(1.0),
    "stable-1.5": models.symmetric_stable(1.5),
    "jump-diffusion": models.jump_diffusion(1.0, 1.0, 1.0, 2.0),
}
CLOCK_FAMILIES = {
    "exponential": verify.ExponentialClockFamily(qs=(0.5, 0.1)),
    "hitting": verify.HittingClockFamily(cs=(3.0, 6.0)),
    "two-point": verify.TwoPointClockFamily(gamma=0.5, rs=(2.0, 4.0)),
    "inverse-lt": verify.InverseLocalTimeClockFamily(cs=(3.0, 6.0)),
    "budget-c=-1": verify.LocalTimeBudgetClockFamily(c=-1.0, us=(0.5, 1.0)),
    "budget-c=3": verify.LocalTimeBudgetClockFamily(c=3.0, us=(0.5, 1.0)),
}


def _outcome(call, *args):
    """What ``call(*args)`` returns, or its error as a string."""
    try:
        return call(*args)
    except Exception as exc:  # a set-up that raises is an output too
        return f"{type(exc).__name__}: {exc}"


def _reports(check, *args) -> list | str:
    reports = _outcome(check, *args)
    return reports if isinstance(reports, str) else [r.to_dict() for r in reports]


def ensembles(model) -> dict:
    """Limit, martingale and inverse-clock reports of one model, keyed by set-up."""
    out = {}
    long_mc = MCConfig(n_paths=200, master_seed=5, grid=SimGrid(dt=4e-3, horizon=100.0))
    short_mc = MCConfig(n_paths=500, master_seed=5, grid=SimGrid(dt=1e-3, horizon=0.55))
    for rates in ((1.0, 2.0), (1.0, math.inf), (math.inf, math.inf)):
        params = PenalizationParams(0.0, 1.0, *rates)
        for name, family in CLOCK_FAMILIES.items():
            out[f"limit {rates} {name}"] = _reports(
                verify.check_penalization_limit, model, params, family,
                verify.IndicatorAbove(2.0), 0.25, 2.0, long_mc)
        # the decay rate is fitted on the long walks and fed to the
        # inverse-clock check, whose short walks start at the clock level
        fit = _outcome(estimate_decay_rate, model, params, -1.0, long_mc)
        failed = isinstance(fit, str)
        out[f"decay-rate {rates}"] = fit if failed else dataclasses.asdict(fit)
        out[f"inverse-clock {rates}"] = fit if failed else _reports(
            verify.check_inverse_clock_martingale, model, params, -1.0, (0.1, 0.5), -1.0,
            short_mc, fit)
    for rates in ((1.0, 1.0), (1.0, math.inf), (math.inf, math.inf)):
        out[f"martingale {rates}"] = _reports(
            verify.check_martingale, model, PenalizationParams(0.0, 1.0, *rates),
            (0.1, 0.5), 2.0, short_mc)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    for name, text in CONFIGS.items():
        config_dir = out / name
        config_dir.mkdir(parents=True, exist_ok=True)
        (config_dir / "run.ini").write_text(text.lstrip() + _GRID_MC)
        for command in COMMANDS:
            run(config_dir, command)
            print(f"{name}: {command}", flush=True)
    (out / "ensembles").mkdir(parents=True, exist_ok=True)
    for name, model in ENSEMBLE_MODELS.items():
        text = json.dumps(ensembles(model), indent=1, sort_keys=True)
        (out / "ensembles" / f"{name}.json").write_text(text + "\n")
        print(f"ensembles: {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
