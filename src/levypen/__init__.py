"""Penalization functionals of recurrent Levy processes, verified by Monte Carlo.

The package computes the objects that drive local-time penalization and
conditioning to avoid points: exact resolvent densities (closed forms,
residues, and a rotated contour for the stable model, with Fourier
quadrature kept as their reference), the renormalized zero resolvent in
closed form and its directional tilts, expected local times before hits,
exit-order probabilities, and the martingale factors of the three weight
regimes.  A simulation layer with exact increment laws and occupation
local times backs a statistical harness that checks every closed form
against paths.  Importing the package loads numpy only; scipy and mpmath
are imported on first use by the quadrature references and by
check_condition_a.
"""

from .models import brownian, check_condition_a, jump_diffusion, symmetric_stable
from .pathsim import MCConfig, SimGrid
from .penalization import (PenalizationParams, estimate_decay_rate,
                           local_time_until_either_hit, local_time_until_hit,
                           martingale_factor, prob_hit_before)
from .resolvent import (resolvent_density, resolvent_gap, tilted_zero_resolvent,
                        zero_resolvent)

__version__ = "0.1.0"

__all__ = [
    "brownian", "symmetric_stable", "jump_diffusion", "check_condition_a",
    "resolvent_density", "resolvent_gap", "zero_resolvent", "tilted_zero_resolvent",
    "PenalizationParams", "local_time_until_hit", "local_time_until_either_hit",
    "prob_hit_before", "martingale_factor", "estimate_decay_rate",
    "SimGrid", "MCConfig",
    "__version__",
]
