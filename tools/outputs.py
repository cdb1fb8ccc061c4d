"""Write the command-line outputs of four fixed configurations to a directory.

Usage: python tools/outputs.py OUT_DIR

For each configuration in ``CONFIGS`` this runs ``levypen table``,
``levypen verify`` (all four suites), ``levypen simulate -n 2`` and
``levypen estimate-h`` with the ``levypen`` package of this checkout's
``src`` directory.  ``OUT_DIR/<config>/`` receives the configuration,
every file the commands write, their console output (``<command>.log``)
and their exit status (``<command>.status``).

Run it on two commits and compare the two directories with ``diff -r``
to see which outputs a change moved.  It takes about a minute on a
2-vCPU machine and is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from levypen import cli  # noqa: E402

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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
