"""Closed-form penalization functionals of a recurrent Levy process.

The penalized process is the original one reweighted by a multiplicative
functional of its local times at two points a != b.  Three weight
regimes exist: both rates finite, one infinite (the path must avoid b),
and both infinite (the path must avoid both points).  In each regime the
density process of the limit law is a nonnegative martingale

    (position factor at X_t) * (local-time weight at t),

and this module evaluates both factors in closed form from the zero
resolvent.  It also provides the corrected two-point expected local time
formula, the exit-order probability it rests on, and a Monte Carlo
estimator of the decay rate of the weighted mass along an
inverse-local-time clock.  Every weighted function takes one
``PenalizationParams``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .models import LevyModel
# walk_one is re-exported: instrumentation wraps it by name in this module
from .pathsim import (NOT_HIT, MCConfig, PathPlan, WalkState,  # noqa: F401
                      _batch_stderr, walk_ensemble, walk_one)
from .resolvent import _finite_point, _tilt, zero_resolvent_fn

__all__ = [
    "PenalizationParams",
    "MCDegenerateError",
    "local_time_until_hit",
    "local_time_until_either_hit",
    "prob_hit_before",
    "martingale_factor",
    "path_weight",
    "inverse_clock_value",
    "estimate_decay_rate",
    "zero_resolvent_cached_fn",
]

log = logging.getLogger(__name__)

FINITE = "finite"          # both rates finite and positive
SINGLE = "single"          # finite rate at a, avoidance of b
AVOID = "avoid"            # avoidance of both points

_NEG_CLAMP = 1e-10
_TAG_DECAY = 401        # stream tag of the decay-rate ensemble


class MCDegenerateError(RuntimeError):
    """No sampled path carries signal: every weight vanished or no path resolved."""


@dataclass(frozen=True)
class PenalizationParams:
    """Points, local-time rates and directional tilt of a penalization.

    Valid rate pairs are (finite>0, finite>0), (finite>0, inf) and
    (inf, inf): the three weight regimes.
    """

    a: float
    b: float
    lambda_a: float
    lambda_b: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"penalized points must be finite, got {self.a}, {self.b}")
        if self.a == self.b:
            raise ValueError("the two penalized points must be distinct")
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"tilt must lie in [-1, 1], got {self.gamma}")
        la, lb = self.lambda_a, self.lambda_b
        ok = ((la > 0 and math.isfinite(la) and lb > 0 and math.isfinite(lb))
              or (la > 0 and math.isfinite(la) and lb == math.inf)
              or (la == math.inf and lb == math.inf))
        if not ok:
            raise ValueError(
                f"rate pair ({la}, {lb}) is none of (finite,finite), (finite,inf), "
                f"(inf,inf)")

    @property
    def regime(self) -> str:
        if math.isfinite(self.lambda_a) and math.isfinite(self.lambda_b):
            return FINITE
        if math.isfinite(self.lambda_a):
            return SINGLE
        return AVOID

    @property
    def rates(self) -> tuple:
        """((a, lambda_a), (b, lambda_b)): each penalized point with its rate."""
        return ((self.a, self.lambda_a), (self.b, self.lambda_b))


# a second name of the cached h evaluator, resolvent.zero_resolvent_fn
zero_resolvent_cached_fn = zero_resolvent_fn


def local_time_until_hit(model: LevyModel, a: float) -> float:
    """Expected local time at the origin before hitting a: h(a) + h(-a).

    Zero exactly when a = 0.  Equality with the Monte Carlo occupation
    estimate is one of the harness identities.
    """
    _finite_point(a)
    if a == 0.0:
        return 0.0
    h = zero_resolvent_fn(model)
    return float(h(a) + h(-a))


def local_time_until_either_hit(model: LevyModel, a: float, b: float, h=None) -> float:
    """Expected local time at the origin before hitting a or b.

    The corrected two-point formula; symmetric in (a, b) term by term,
    so swapped arguments produce the bit-identical value.
    """
    _finite_point(a, b)
    if a == b:
        raise ValueError("points must be distinct")
    h = h or zero_resolvent_fn(model)
    ha, hb = float(h(a)), float(h(b))
    hma, hmb = float(h(-a)), float(h(-b))
    hab, hba = float(h(a - b)), float(h(b - a))
    num = ((hb + hma) * hab + (ha + hmb) * hba
           + (ha - hb) * (hmb - hma) - hab * hba)
    return num / (hab + hba)


def prob_hit_before(model: LevyModel, x, a: float, b: float, h=None):
    """P_x(T_a < T_b): probability of reaching a strictly before b.

    Computed as [h(b-a) + h(x-b) - h(x-a)] / [h(a-b) + h(b-a)], the
    zero-discount limit of the exit-order identity, and clamped to
    [0, 1].  The complement with swapped points sums to one exactly by
    construction.  Accepts scalar or array x.
    """
    _finite_point(a, b)
    if a == b:
        raise ValueError("points must be distinct")
    h = h or zero_resolvent_fn(model)
    xs = np.asarray(x, dtype=float)
    return _exit_first(float(h(b - a)), h(xs - b), h(xs - a),
                       float(h(a - b) + h(b - a)), a, b, np.ndim(x) == 0)


def _exit_first(h_ba, h_xb, h_xa, denom, a, b, scalar):
    """P_x(T_a < T_b) from the h values of ``prob_hit_before``, clamped to [0, 1]."""
    raw = (h_ba + h_xb - h_xa) / denom
    clipped = np.clip(raw, 0.0, 1.0)
    overshoot = float(np.max(np.abs(np.asarray(raw) - np.asarray(clipped)), initial=0.0))
    if overshoot > 1e-8:
        log.warning("exit-order probability clamped by %.3e at a=%s b=%s", overshoot, a, b)
    return float(clipped) if scalar else clipped


def martingale_factor(model: LevyModel, params: PenalizationParams, x, h=None):
    """Position factor of the penalization martingale at x.

    Dispatches on the weight regime: the avoidance factor
    h_g(x-a) - P_x(T_b<T_a) h_g(b-a) for (inf, inf), one extra term for
    (finite, inf), and the full six-term expression when both rates are
    finite.  Nonnegative; rounding negatives are clamped.
    Symmetric under swapping the (point, rate) pairs.  Accepts scalar or
    array x; an array gives the scalar values bit for bit.
    """
    h = h or zero_resolvent_fn(model)
    a, b, g = params.a, params.b, params.gamma
    la, lb = params.lambda_a, params.lambda_b
    xs = np.asarray(x, dtype=float)
    scalar = np.ndim(x) == 0

    # both exit probabilities from one set of h values; h(b-a) + h(a-b)
    # and h(a-b) + h(b-a) are the same IEEE sum
    h_ab, h_ba = h(a - b), h(b - a)
    h_xa, h_xb = h(xs - a), h(xs - b)
    big_b = float(h_ab + h_ba)
    p_b = _exit_first(float(h_ab), h_xa, h_xb, big_b, b, a, scalar)   # reaches b first
    # the tilt reuses the h values above: four evaluations of h in all
    u = _tilt(model, g, np.asarray(a - b), h_ab)
    v = _tilt(model, g, np.asarray(b - a), h_ba)
    val = _tilt(model, g, xs - a, h_xa) - p_b * v
    if params.regime != AVOID:
        # the regimes with a finite rate at a add the paths that reach a first
        p_a = _exit_first(float(h_ba), h_xb, h_xa, big_b, a, b, scalar)
        val = val + p_a * u / (1.0 + la * big_b)
        if params.regime == FINITE:
            dd = la + lb + la * lb * big_b
            val = (val
                   + p_a / (1.0 + la * big_b) * (1.0 + la * v) / dd
                   + p_b * v / (1.0 + lb * big_b)
                   + p_b / (1.0 + lb * big_b) * (1.0 + lb * u) / dd)

    arr = np.asarray(val, dtype=float)
    worst = float(arr.min(initial=0.0))
    # h is closed form for every model, so a negative here is rounding
    # noise in a sum of h values; one below the gate is a wrong factor
    if worst < -1e-6:
        raise ArithmeticError(
            f"martingale factor {worst:.3e} below the clamp threshold at a={a}, b={b}")
    if worst < -_NEG_CLAMP:
        log.warning("clamped martingale factor noise %.3e at a=%s b=%s", worst, a, b)
    out = np.maximum(arr, 0.0)
    return float(out) if scalar else out


def _weight_plan_levels(params: PenalizationParams, *levels):
    """(levels to track, levels to detect) for ``path_weight`` to weigh a walk.

    A point with a finite rate is tracked and one with an infinite rate
    detected; ``levels`` are tracked besides, e.g. a clock's level.
    """
    tracked = {*(p for p, lam in params.rates if lam < math.inf), *levels}
    hit = tuple(sorted(p for p, lam in params.rates if lam == math.inf))
    return tuple(sorted(tracked)), hit


def path_weight(params: PenalizationParams, plan: PathPlan, state: WalkState) -> np.ndarray:
    """Local-time weight exp(-la L^a - lb L^b) of walked paths, one per row of a state.

    A finite rate reads the occupation local time of its point from the
    state; an infinite rate is the exact indicator that its point was not
    detected by the row's step.
    """
    # scalar math.exp on purpose: np.exp differs from it in the last bit on
    # some inputs (SIMD builds), and reports are pinned to these bits
    w = np.ones(len(state.step))
    for point, lam in params.rates:
        if lam == math.inf:
            w[state.hit_steps[:, plan.hit_levels.index(point)] <= state.step] = 0.0
        else:
            w *= _exp(-lam * state.local_times[:, plan.tracked_levels.index(point)])
    return w


def inverse_clock_value(params: PenalizationParams, plan: PathPlan, c: float,
                        decay_rate: float, state: WalkState) -> np.ndarray:
    """exp(L^c * decay_rate) times the weight: the inverse-clock reference process."""
    return (_exp(state.local_times[:, plan.tracked_levels.index(c)] * decay_rate)
            * path_weight(params, plan, state))


# scalar math.exp of each element: the one exp of weights and checks (path_weight)
_exp = np.vectorize(math.exp, otypes=[float])


def _check_clock_level(c: float, a: float, b: float) -> None:
    """Reject an inverse-local-time clock level that is not finite or is a penalized point."""
    if not math.isfinite(c) or c in (a, b):
        raise ValueError(f"clock level {c} must be finite and differ from both points")


@dataclass(frozen=True)
class DecayRateEstimate:
    """Log-linear fit of the weighted mass against the local-time budget.

    The weighted mass at the inverse local time eta_u^c decays exactly
    exponentially in u, so the fit residuals double as a correctness
    diagnostic: they should stay within two standard errors.
    """

    estimate: float
    stderr: float
    raw_estimate: float
    u_grid: tuple
    log_means: tuple
    log_stderrs: tuple
    residuals: tuple
    survivors: tuple
    censored_fraction: float


def estimate_decay_rate(model: LevyModel, params: PenalizationParams, c: float,
                        mc: MCConfig, u0: float = 1.0) -> DecayRateEstimate:
    """Estimate the decay rate of P_c[weight at eta_u^c] = exp(-u * rate).

    Simulates paths from c, records the weight at the inverse local
    times for u in {u0/2, u0, 2u0} (one ensemble, three crossings per
    path), and fits -log(mean weight) against u by weighted least
    squares.  The standard error of each mean is the batch stderr over
    path blocks, which makes the shared-path correlation between the
    three points harmless.  Paths whose local time at c never reaches a
    threshold by the horizon are dropped for that threshold, from the
    mean and from their batch, and reported as censored.  The weight is
    that of ``params``; its tilt plays no part.
    """
    _check_clock_level(c, params.a, params.b)
    if not (math.isfinite(u0) and u0 > 0):
        raise ValueError(f"u0 must be finite and positive, got {u0}")
    u_grid = (0.5 * u0, u0, 2.0 * u0)
    tracked, hit = _weight_plan_levels(params, c)
    plan = PathPlan(tracked_levels=tracked, hit_levels=hit, lt_level=c, lt_thresholds=u_grid)

    rec = walk_ensemble(model, c, mc.grid, plan, mc.master_seed, _TAG_DECAY, mc.n_paths)
    states = [rec.crossings[u] for u in u_grid]
    present = np.array([st.step != NOT_HIT for st in states], dtype=float)
    weights = np.where(present, [path_weight(params, plan, st) for st in states], 0.0)

    survivors = tuple(int(np.count_nonzero(w)) for w in weights)
    if any(s == 0 for s in survivors):
        raise MCDegenerateError(
            f"all weights vanished at some local-time budget (survivors {survivors})")
    censored = 1.0 - float(present[2].mean())

    means = weights.sum(axis=1) / present.sum(axis=1)
    se = np.array([_batch_stderr(w, p) for w, p in zip(weights, present)])

    y = -np.log(means)
    var_y = np.maximum((se / means) ** 2, 1e-30)
    w_fit = 1.0 / var_y
    u_arr = np.array(u_grid)
    ubar = np.sum(w_fit * u_arr) / np.sum(w_fit)
    ybar = np.sum(w_fit * y) / np.sum(w_fit)
    sxx = np.sum(w_fit * (u_arr - ubar) ** 2)
    slope = float(np.sum(w_fit * (u_arr - ubar) * (y - ybar)) / sxx)
    slope_se = float(math.sqrt(1.0 / sxx))
    resid = y - (ybar + slope * (u_arr - ubar))

    return DecayRateEstimate(
        estimate=max(slope, 0.0), stderr=slope_se, raw_estimate=slope,
        u_grid=u_grid, log_means=tuple(float(t) for t in y),
        log_stderrs=tuple(float(t) for t in np.sqrt(var_y)),
        residuals=tuple(float(t) for t in resid),
        survivors=survivors, censored_fraction=censored)
