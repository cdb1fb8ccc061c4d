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
estimator of the decay rate that governs the inverse-local-time-clock
martingale.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import LevyModel
from .pathsim import MCConfig, PathPlan, path_stream, walk_one
from .resolvent import QuadratureConfig, ZeroLimitConfig, zero_resolvent_fn

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
UNWEIGHTED = "unweighted"  # both rates zero; weight identically one

_NEG_CLAMP = 1e-10
_H_FN_CACHE_SIZE = 64   # evaluators, one per (model, quadrature, limit) config


class MCDegenerateError(RuntimeError):
    """Every sampled weight vanished; the estimator carries no signal."""


@dataclass(frozen=True)
class PenalizationParams:
    """Points, local-time rates and directional tilt of a penalization.

    Valid rate pairs are (finite>0, finite>0), (finite>0, inf) and
    (inf, inf) -- the three weight regimes -- plus (0, 0), the unit
    weight admitted for weight-only diagnostics.  The position factor
    is undefined for the unit weight and rejects it.
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
              or (la == math.inf and lb == math.inf)
              or (la == 0.0 and lb == 0.0))
        if not ok:
            raise ValueError(
                f"rate pair ({la}, {lb}) is none of (finite,finite), (finite,inf), "
                f"(inf,inf), (0,0)")

    @property
    def regime(self) -> str:
        if self.lambda_a == 0.0:
            return UNWEIGHTED
        if math.isfinite(self.lambda_a) and math.isfinite(self.lambda_b):
            return FINITE
        if math.isfinite(self.lambda_a):
            return SINGLE
        return AVOID

    @property
    def rates(self) -> tuple:
        """((a, lambda_a), (b, lambda_b)): each penalized point with its rate."""
        return ((self.a, self.lambda_a), (self.b, self.lambda_b))


@functools.lru_cache(maxsize=_H_FN_CACHE_SIZE)
def zero_resolvent_cached_fn(model: LevyModel,
                             cfg: QuadratureConfig | None = None,
                             ext: ZeroLimitConfig | None = None):
    """Per-model vectorized zero-resolvent evaluator, built once."""
    return zero_resolvent_fn(model, cfg, ext)


def _tilted(model: LevyModel, h, gamma: float, x):
    """h(x) + gamma x / m2 with the tilt vanishing at infinite m2."""
    val = h(x)
    if gamma != 0.0 and math.isfinite(model.m2):
        val = val + gamma * np.asarray(x, dtype=float) / model.m2
    return val


def local_time_until_hit(model: LevyModel, a: float, h=None) -> float:
    """Expected local time at the origin before hitting a: h(a) + h(-a).

    Zero exactly when a = 0.  Equality with the Monte Carlo occupation
    estimate is one of the harness identities.
    """
    if a == 0.0:
        return 0.0
    h = h or zero_resolvent_cached_fn(model)
    return float(h(a) + h(-a))


def local_time_until_either_hit(model: LevyModel, a: float, b: float, h=None) -> float:
    """Expected local time at the origin before hitting a or b.

    The corrected two-point formula; symmetric in (a, b) term by term,
    so swapped arguments produce the bit-identical value.
    """
    if a == b:
        raise ValueError("points must be distinct")
    h = h or zero_resolvent_cached_fn(model)
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
    if a == b:
        raise ValueError("points must be distinct")
    h = h or zero_resolvent_cached_fn(model)
    denom = float(h(a - b) + h(b - a))
    raw = (float(h(b - a)) + h(np.asarray(x, dtype=float) - b) - h(np.asarray(x, dtype=float) - a)) / denom
    clipped = np.clip(raw, 0.0, 1.0)
    overshoot = float(np.max(np.abs(np.asarray(raw) - np.asarray(clipped)), initial=0.0))
    if overshoot > 1e-8:
        log.warning("exit-order probability clamped by %.3e at a=%s b=%s", overshoot, a, b)
    if np.ndim(x) == 0:
        return float(clipped)
    return clipped


def martingale_factor(model: LevyModel, params: PenalizationParams, x, h=None):
    """Position factor of the penalization martingale at x.

    Dispatches on the weight regime: the avoidance factor
    h_g(x-a) - P_x(T_b<T_a) h_g(b-a) for (inf, inf), one extra term for
    (finite, inf), and the full six-term expression when both rates are
    finite.  Nonnegative; tiny quadrature negatives are clamped.
    Symmetric under swapping the (point, rate) pairs.  Accepts scalar or
    array x.
    """
    if params.regime == UNWEIGHTED:
        raise ValueError("position factor undefined for the unit weight")
    h = h or zero_resolvent_cached_fn(model)
    a, b, g = params.a, params.b, params.gamma
    la, lb = params.lambda_a, params.lambda_b
    xs = np.asarray(x, dtype=float)

    p_a = prob_hit_before(model, xs, a, b, h=h)   # reaches a first
    p_b = prob_hit_before(model, xs, b, a, h=h)   # reaches b first
    u = float(_tilted(model, h, g, a - b))
    v = float(_tilted(model, h, g, b - a))
    big_b = float(h(a - b) + h(b - a))

    val = _tilted(model, h, g, xs - a) - p_b * v
    if params.regime == SINGLE:
        val = val + p_a * u / (1.0 + la * big_b)
    elif params.regime == FINITE:
        dd = la + lb + la * lb * big_b
        val = (val
               + p_a * u / (1.0 + la * big_b)
               + p_a / (1.0 + la * big_b) * (1.0 + la * v) / dd
               + p_b * v / (1.0 + lb * big_b)
               + p_b / (1.0 + lb * big_b) * (1.0 + lb * u) / dd)

    arr = np.asarray(val, dtype=float)
    worst = float(arr.min(initial=0.0))
    # exact-form evaluators leave float noise only; a memoized quadrature
    # evaluator (jump diffusion) carries its stop_tol, hence the wider gate
    if worst < -1e-6:
        raise ArithmeticError(
            f"martingale factor {worst:.3e} below the clamp threshold at a={a}, b={b}")
    if worst < -_NEG_CLAMP:
        log.warning("clamped martingale factor noise %.3e at a=%s b=%s", worst, a, b)
    out = np.maximum(arr, 0.0)
    return float(out) if np.ndim(x) == 0 else out


def path_weight(rates, plan: PathPlan, step: int, local_times, hit_steps) -> float:
    """Local-time weight exp(-la L^a - lb L^b) of a walked path at a grid step.

    ``rates`` pairs each point with its rate, as ``PenalizationParams.rates``.
    A finite rate reads the occupation local time of its point from
    ``local_times`` (ordered as ``plan.tracked_levels``); an infinite rate
    is the exact indicator that its point was not detected by ``step``
    (``hit_steps`` ordered as ``plan.hit_levels``).  Zero rates weigh 1.
    """
    w = 1.0
    for point, lam in rates:
        if lam == math.inf:
            if hit_steps[plan.hit_levels.index(point)] <= step:
                return 0.0
        elif lam > 0:
            w *= math.exp(-lam * local_times[plan.tracked_levels.index(point)])
    return w


def inverse_clock_value(rates, plan: PathPlan, c: float, decay_rate: float, step: int,
                        local_times, hit_steps) -> float:
    """exp(L^c * decay_rate) times the weight: the inverse-clock reference process."""
    return (math.exp(local_times[plan.tracked_levels.index(c)] * decay_rate)
            * path_weight(rates, plan, step, local_times, hit_steps))


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


def estimate_decay_rate(model: LevyModel, a: float, b: float, c: float,
                        lambda_a: float, lambda_b: float, mc: MCConfig,
                        u0: float = 1.0, seed_tag: int = 401) -> DecayRateEstimate:
    """Estimate the decay rate of P_c[weight at eta_u^c] = exp(-u * rate).

    Simulates paths from c, records the weight at the inverse local
    times for u in {u0/2, u0, 2u0} (one ensemble, three crossings per
    path), and fits -log(mean weight) against u by weighted least
    squares.  Batch means over path blocks provide the standard errors,
    which makes the shared-path correlation between the three points
    harmless.  Paths whose local time at c never reaches a threshold by
    the horizon are dropped for that threshold and reported as censored.
    """
    if len({a, b, c}) != 3:
        raise ValueError("the two points and the clock level must be distinct")
    if lambda_a < 0 or lambda_b < 0:
        raise ValueError("weight rates must be nonnegative")
    u_grid = (0.5 * u0, u0, 2.0 * u0)
    rates = ((a, lambda_a), (b, lambda_b))
    finite = tuple(lv for lv, lam in rates if math.isfinite(lam))
    plan = PathPlan(tracked_levels=tuple(sorted({*finite, c})),
                    hit_levels=tuple(lv for lv, lam in rates if lam == math.inf),
                    lt_level=c, lt_thresholds=u_grid, lt_stop=True)

    n = mc.n_paths
    weights = np.full((3, n), np.nan)
    for i in range(n):
        rng = path_stream(mc.master_seed, seed_tag, i)
        rec = walk_one(model, c, mc.grid, plan, rng)
        for j, u in enumerate(u_grid):
            got = rec.crossings.get(u)
            if got is None:
                continue
            step, lts, hsteps = got
            weights[j, i] = path_weight(rates, plan, step, lts, hsteps)

    present = ~np.isnan(weights)
    survivors = tuple(int(np.nansum(weights[j] > 0)) for j in range(3))
    if any(s == 0 for s in survivors):
        raise MCDegenerateError(
            f"all weights vanished at some local-time budget (survivors {survivors})")
    censored = 1.0 - float(present[2].mean())

    means = np.array([np.nanmean(weights[j]) for j in range(3)])
    nb = mc.n_batches
    batch = weights.reshape(3, nb, n // nb)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # batches with no survivors
        bmeans = np.nanmean(batch, axis=2)
        se = np.nanstd(bmeans, axis=1, ddof=1) / math.sqrt(nb)

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
