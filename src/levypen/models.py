"""Catalogue of recurrent Levy processes with exact increment sampling.

Three model kinds are supported: standard Brownian motion, symmetric
alpha-stable motion with index in (1, 2], and a mean-zero jump diffusion
(Brownian part plus compound-Poisson two-sided exponential jumps).  All
three are recurrent, hit points, and admit an integrable resolvent kernel
``1 / (q + psi)``, which is what the quadrature and local-time machinery
downstream relies on.  The catalogue is closed on purpose: every member
has an exact increment law, so Monte Carlo runs never pay an Euler
discretisation bias for the driving noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevyModel",
    "brownian",
    "symmetric_stable",
    "jump_diffusion",
    "check_condition_a",
]

BROWNIAN = "brownian"
STABLE = "stable"
JUMP_DIFFUSION = "jump-diffusion"


@dataclass(frozen=True)
class LevyModel:
    """A recurrent Levy process identified by its characteristic exponent.

    Instances are immutable and hashable so they can key caches of
    quadrature results.  Use the factory functions :func:`brownian`,
    :func:`symmetric_stable` and :func:`jump_diffusion` instead of the
    constructor; they validate parameters.
    """

    kind: str
    sigma: float = 0.0
    alpha: float = 0.0
    jump_rate: float = 0.0
    p_plus: float = 0.0
    p_minus: float = 0.0

    @property
    def m2(self) -> float:
        """Second moment of X_1; math.inf when infinite."""
        if self.kind == STABLE:
            return 2.0 if self.alpha == 2.0 else math.inf
        if self.kind == BROWNIAN:
            return self.sigma**2
        return self.sigma**2 + self.jump_rate * 2.0 / (self.p_plus * self.p_minus)

    @property
    def symmetric(self) -> bool:
        """psi is real: no jumps, or jumps of one law in both directions."""
        return (self.kind != JUMP_DIFFUSION or self.p_plus == self.p_minus
                or self.jump_rate == 0.0)

    def psi(self, lam):
        """Characteristic exponent: E_0[exp(i lam X_t)] = exp(-t psi(lam)).

        Accepts scalars or arrays.  Real-valued for symmetric models
        (a jump diffusion without jumps or with p+ = p- included),
        complex for the asymmetric jump diffusion.
        """
        lam = np.asarray(lam, dtype=float)
        if self.kind == BROWNIAN:
            out = 0.5 * self.sigma**2 * lam**2
        elif self.kind == STABLE:
            out = np.abs(lam) ** self.alpha
        else:
            w = self.p_plus / (self.p_plus + self.p_minus)
            jump_cf = (w * self.p_plus / (self.p_plus - 1j * lam)
                       + (1.0 - w) * self.p_minus / (self.p_minus + 1j * lam))
            out = 0.5 * self.sigma**2 * lam**2 + self.jump_rate * (1.0 - jump_cf)
            if self.symmetric:
                # no jumps, or p+ = p-: the imaginary part is an exact zero
                out = out.real
        if out.ndim == 0:
            return complex(out) if np.iscomplexobj(out) else float(out)
        return out

    @property
    def has_gaussian_part(self) -> bool:
        if self.kind == STABLE:
            return self.alpha == 2.0
        return self.sigma > 0.0

    @property
    def continuous_paths(self) -> bool:
        """No jump part: a path cannot pass a point without hitting it."""
        if self.kind == STABLE:
            return self.alpha == 2.0
        return self.jump_rate == 0.0

    @property
    def gaussian_sigma(self) -> float:
        """Volatility of the Gaussian component (for bridge corrections)."""
        if self.kind == STABLE:
            return math.sqrt(2.0) if self.alpha == 2.0 else 0.0
        return self.sigma

    def small_freq_scale(self, q: float) -> float:
        """Frequency below which q dominates psi: psi(scale) ~ q.

        Used to force quadrature panels onto the q-dependent feature of
        the resolvent kernel near lam = 0.
        """
        if self.kind == STABLE:
            return q ** (1.0 / self.alpha)
        m2 = self.m2 if math.isfinite(self.m2) else self.sigma**2
        return math.sqrt(2.0 * q / m2)

    def tail_bound(self, q: float, lam: float) -> float:
        """Upper bound for the integral of |1/(q + psi)| over [lam, inf).

        Analytic per kind; certifies convergence that quadrature alone
        cannot.
        """
        if lam <= 0:
            raise ValueError("tail bound needs lam > 0")
        if self.kind == STABLE:
            a = self.alpha
            # |q + psi| >= psi = lam^a on the positive axis
            return lam ** (1.0 - a) / (a - 1.0)
        # Re psi >= sigma^2 lam^2 / 2 for both Gaussian-component kinds
        return 2.0 / (self.sigma**2 * lam)

    def sample_increments(self, rng: np.random.Generator, dt: float, n: int) -> np.ndarray:
        """Draw n independent increments of X over a time step dt. Exact laws."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if self.kind == BROWNIAN:
            return rng.standard_normal(n) * (self.sigma * math.sqrt(dt))
        if self.kind == STABLE:
            return dt ** (1.0 / self.alpha) * _stable_standard(rng, self.alpha, n)
        out = rng.standard_normal(n) * (self.sigma * math.sqrt(dt))
        counts = rng.poisson(self.jump_rate * dt, n)
        total = int(counts.sum())
        if total:
            w = self.p_plus / (self.p_plus + self.p_minus)
            pos = rng.random(total) < w
            jumps = np.where(pos,
                             rng.exponential(1.0 / self.p_plus, total),
                             -rng.exponential(1.0 / self.p_minus, total))
            np.add.at(out, np.repeat(np.arange(n), counts), jumps)
        return out

    def config_items(self) -> dict:
        """Key-value form used by the CLI config files."""
        if self.kind == BROWNIAN:
            return {"kind": self.kind, "sigma": self.sigma}
        if self.kind == STABLE:
            return {"kind": self.kind, "alpha": self.alpha}
        return {"kind": self.kind, "sigma": self.sigma, "jump_rate": self.jump_rate,
                "p_plus": self.p_plus, "p_minus": self.p_minus}


def _stable_standard(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    """Standard symmetric alpha-stable variates, cf exp(-|lam|^alpha).

    Chambers-Mallows-Stuck in the symmetric parametrisation; valid for
    alpha in (0, 2] including the Gaussian endpoint.
    """
    phi = (rng.random(n) - 0.5) * np.pi
    w = rng.exponential(1.0, n)
    return (np.sin(alpha * phi) / np.cos(phi) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha))


def brownian(sigma: float = 1.0) -> LevyModel:
    """Standard Brownian motion with volatility sigma > 0."""
    if not sigma > 0:
        raise ValueError(f"brownian volatility must be positive, got {sigma}")
    return LevyModel(kind=BROWNIAN, sigma=float(sigma))


def symmetric_stable(alpha: float) -> LevyModel:
    """Symmetric alpha-stable process, psi(lam) = |lam|^alpha, 1 < alpha <= 2.

    Indices alpha <= 1 are rejected: the resolvent kernel 1/(q + |lam|^alpha)
    is not integrable there, so points are not hit and no local time exists.
    alpha = 2 is admitted and coincides with Brownian motion of variance 2t.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError(
            f"stable index must satisfy 1 < alpha <= 2 (resolvent integrability), got {alpha}")
    return LevyModel(kind=STABLE, alpha=float(alpha))


def jump_diffusion(sigma: float, jump_rate: float, p_plus: float, p_minus: float) -> LevyModel:
    """Brownian motion plus compound-Poisson two-sided exponential jumps.

    Jumps are +Exp(p_plus) with probability w and -Exp(p_minus) with
    probability 1 - w, where w = p_plus / (p_plus + p_minus) makes the
    jump law mean zero; the process then has zero mean and is recurrent.
    Asymmetric whenever p_plus != p_minus, which is the catalogue's test
    case for h(x) != h(-x).
    """
    if not sigma > 0:
        raise ValueError(f"jump diffusion needs sigma > 0, got {sigma}")
    if jump_rate < 0:
        raise ValueError(f"jump rate must be nonnegative, got {jump_rate}")
    if not (p_plus > 0 and p_minus > 0):
        raise ValueError("exponential jump rates must be positive")
    return LevyModel(kind=JUMP_DIFFUSION, sigma=float(sigma), jump_rate=float(jump_rate),
                     p_plus=float(p_plus), p_minus=float(p_minus))


@dataclass(frozen=True)
class ConditionADiagnostic:
    """Result of the resolvent-kernel integrability check."""

    finite: bool
    bound: float


def check_condition_a(model: LevyModel, q: float) -> ConditionADiagnostic:
    """Integrability diagnostic for |1/(q + psi)| over the positive axis.

    Numeric quadrature on a finite window plus an analytic tail bound per
    kind; pure quadrature cannot certify convergence, the tail bound can.
    Divergence would be reported through the diagnostic rather than
    raised, but every constructible model in the catalogue passes.
    """
    if not q > 0:
        raise ValueError("q must be positive")
    from .resolvent import _quad_checked

    lam_cut = 50.0
    body = _quad_checked(lambda lam: abs(1.0 / (q + model.psi(lam))), 0.0, lam_cut)
    tail = model.tail_bound(q, lam_cut)
    return ConditionADiagnostic(finite=math.isfinite(tail), bound=body + tail)
