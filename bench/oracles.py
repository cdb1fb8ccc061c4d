"""Closed forms that the benchmark checks levypen's outputs against.

Nothing here imports levypen: every value comes from an exact formula
(Brownian motion, symmetric stable scaling, the rational exponent of the
two-sided exponential jump diffusion) so that a wrong number in the
program cannot also be the reference it is checked against.

Conventions follow levypen's: psi is the characteristic exponent with
E[exp(i lam X_t)] = exp(-t psi(lam)), r_q is the q-resolvent density and
h(x) = lim_{q->0} [r_q(0) - r_q(-x)] is the renormalized zero resolvent.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


# ---------------------------------------------------------------------------
# Brownian motion with volatility sigma

def bm_resolvent(q: float, x: float, sigma: float = 1.0) -> float:
    """r_q(x) = exp(-sqrt(2q) |x| / sigma) / (sigma sqrt(2q))."""
    k = math.sqrt(2.0 * q)
    return math.exp(-k * abs(x) / sigma) / (sigma * k)


def bm_h(x: float, sigma: float = 1.0) -> float:
    """h(x) = |x| / sigma^2."""
    return abs(x) / sigma**2


def bm_avoid_factor(x: float, a: float, b: float) -> float:
    """Harmonic function of standard BM killed at {a, b}, unit slope at infinity.

    Piecewise linear: zero between the points, the distance to the
    nearer point outside them.
    """
    lo, hi = min(a, b), max(a, b)
    return max(lo - x, x - hi, 0.0)


def bm_ruin(x: float, a: float, b: float) -> float:
    """P_x(T_a < T_b) for BM: linear between the points, 0 or 1 outside."""
    return min(max((b - x) / (b - a), 0.0), 1.0)


def bm_limit_reference(x0: float, b: float, t: float, threshold: float) -> float:
    """E_x0[(X_t - b) 1{X_t > threshold}; T_b > t] / (x0 - b) for standard BM.

    Requires x0 > b and threshold >= b.  The killed density is
    phi_t(y - x0) - phi_t(y - (2b - x0)) on y > b (reflection at b).
    """
    if not (x0 > b and threshold >= b):
        raise ValueError("needs x0 > b and threshold >= b")
    s = math.sqrt(t)

    def tail(m):
        # int_threshold^inf (y - b) phi_s(y - m) dy
        z = (threshold - m) / s
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return s * pdf + (m - b) * 0.5 * math.erfc(z / math.sqrt(2.0))

    return (tail(x0) - tail(2.0 * b - x0)) / (x0 - b)


# ---------------------------------------------------------------------------
# symmetric alpha-stable, psi(lam) = |lam|^alpha

def stable_h(x: float, alpha: float) -> float:
    """h(x) = |x|^(alpha-1) / (2 Gamma(alpha) sin(pi (alpha-1) / 2))."""
    return abs(x) ** (alpha - 1.0) / (
        2.0 * math.gamma(alpha) * math.sin(0.5 * math.pi * (alpha - 1.0)))


def stable_resolvent_at_zero(q: float, alpha: float) -> float:
    """r_q(0) = (1/pi) int_0^inf dlam / (q + lam^alpha) = q^(1/alpha - 1) / (alpha sin(pi/alpha))."""
    return q ** (1.0 / alpha - 1.0) / (alpha * math.sin(math.pi / alpha))


# ---------------------------------------------------------------------------
# jump diffusion: sigma B_t plus compound Poisson with +Exp(p_plus) jumps
# (probability w = p_plus / (p_plus + p_minus)) and -Exp(p_minus) jumps.
#
# With A = p_plus - i lam and B = p_minus + i lam the mean-zero jump law
# gives 1 - E[e^{i lam J}] = lam^2 / (A B), hence
#     psi = lam^2 Q / D,   D = A B,   Q = sigma^2 D / 2 + rate,
# and every transform of 1 / (q + psi) = D / (q D + lam^2 Q) is a finite
# sum of residues.

class JumpDiffusion:
    """Residue evaluator for the two-sided exponential jump diffusion."""

    def __init__(self, sigma: float, rate: float, p_plus: float, p_minus: float):
        self.sigma, self.rate = float(sigma), float(rate)
        self.p_plus, self.p_minus = float(p_plus), float(p_minus)
        self.m2 = self.sigma**2 + 2.0 * self.rate / (self.p_plus * self.p_minus)

    def _d(self, lam):
        return (self.p_plus - 1j * lam) * (self.p_minus + 1j * lam)

    def _dq(self, lam):
        return 0.5 * self.sigma**2 * (1j * (self.p_plus - self.p_minus) + 2.0 * lam)

    def q_roots(self) -> tuple:
        """Roots i s of Q: s^2 + (p+ - p-) s - (p+ p- + 2 rate / sigma^2) = 0.

        The product of the two s is negative, so one root lies in each
        half-plane; returned as (upper, lower).
        """
        c1 = self.p_plus - self.p_minus
        c0 = self.p_plus * self.p_minus + 2.0 * self.rate / self.sigma**2
        disc = math.sqrt(c1 * c1 + 4.0 * c0)
        return 1j * 0.5 * (-c1 + disc), 1j * 0.5 * (-c1 - disc)

    def h(self, x: float) -> float:
        """h(x) = |x| / m2 + sgn(x) i Res_{r}[(1 - e^{i lam x}) D / (lam^2 Q)].

        r is the root of Q in the half-plane where e^{i lam x} decays;
        the |x| / m2 term is half the residue of the pole at lam = 0,
        which the principal value on the real axis picks up.
        """
        if x == 0.0:
            return 0.0
        upper, lower = self.q_roots()
        r = upper if x > 0 else lower
        res = (1.0 - cmath.exp(1j * r * x)) * self._d(r) / (r * r * self._dq(r))
        val = abs(x) / self.m2 + math.copysign(1.0, x) * (1j * res)
        return val.real

    def resolvent(self, q: float, x: float) -> float:
        """r_q(x) = (1/2pi) int e^{-i lam x} D / N dlam with N = q D + lam^2 Q.

        For x >= 0 the integrand decays in the lower half-plane, for
        x < 0 in the upper one; N is a quartic with no real roots.
        """
        s2 = 0.5 * self.sigma**2
        a, b = self.p_plus, self.p_minus
        # D = ab + i(a - b) lam + lam^2 ;  lam^2 Q = s2 lam^2 D + rate lam^2
        d_poly = np.array([1.0, 1j * (a - b), a * b])
        n_poly = (np.polyadd(np.polymul([s2, 0.0, 0.0], d_poly), [self.rate, 0.0, 0.0])
                  + np.concatenate(([0.0, 0.0], q * d_poly)))
        dn_poly = np.polyder(n_poly)
        total = 0.0j
        for r in np.roots(n_poly):
            if (x >= 0 and r.imag < 0) or (x < 0 and r.imag > 0):
                total += (np.exp(-1j * r * x) * np.polyval(d_poly, r)
                          / np.polyval(dn_poly, r))
        val = -1j * total if x >= 0 else 1j * total
        return float(val.real)


# ---------------------------------------------------------------------------
# identities that hold for any recurrent process with zero resolvent h

def killed_green(h, x: float, y: float, a: float) -> float:
    """Green density at y from x of the process killed on hitting a.

    G_a(x, y) = h(a - y) + h(x - a) - h(x - y).
    """
    return h(a - y) + h(x - a) - h(x - y)


def prob_hit_before(h, x: float, a: float, b: float) -> float:
    """P_x(T_a < T_b) = G_b(x, a) / G_b(a, a), clamped to [0, 1]."""
    p = killed_green(h, x, a, b) / killed_green(h, a, a, b)
    return min(max(p, 0.0), 1.0)


def local_time_until_either_hit(h, a: float, b: float) -> float:
    """E_0[L^0 before T_a ^ T_b] by the strong Markov property at T_b.

    G_a(0, 0) minus the part collected after an earlier visit to b:
    P_0(T_b < T_a) G_a(b, 0), with P_0(T_b < T_a) = G_a(0, b) / G_a(b, b).
    """
    g00 = killed_green(h, 0.0, 0.0, a)
    p_b = killed_green(h, 0.0, b, a) / killed_green(h, b, b, a)
    return g00 - p_b * killed_green(h, b, 0.0, a)


def avoid_factor(h, x: float, a: float, b: float) -> float:
    """Position factor for avoiding both a and b (no tilt).

    h(x - a) - P_x(T_b < T_a) h(b - a): the process killed at {a, b}
    reweighted by its harmonic function.
    """
    return max(h(x - a) - prob_hit_before(h, x, b, a) * h(b - a), 0.0)
