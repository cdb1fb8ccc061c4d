"""Statistical verification harness: closed forms against Monte Carlo.

Every check produces a :class:`CheckReport` whose pass bit is
recomputable from its stored fields:

    pass = |estimate - target| <= z * stderr + tol_extra
           and censored_fraction <= censor_budget

Standard errors come from batch means over contiguous path-index blocks,
which stays honest for ratio statistics and for the paired difference of
the two sides of a limit check.  Horizon censoring is handled per check
by the estimator that stays consistent under it:

* expected-local-time identities use the exposure-rate estimator (total
  accumulated local time over number of detected hits), as the plain
  mean over uncensored paths is biased by double-digit percents at
  affordable horizons.  It is not unbiased under censoring: by the
  strong Markov property, E[exposure] = E_0[L] (P(hit) + E[1{censored}
  p(X_T)]) with p(y) the chance to reach the hit level before returning
  to the origin from y, so it reads high by that last term.  The term is
  small for Brownian motion, whose censored paths sit mostly below the
  origin, and large for a stable path, which may be far out on either
  side: stable(1.5) read +4.8 to +9.1 standard errors with exact local
  time.  ROADMAP.md's small item adds the term to the denominator;
* the inverse-local-time Laplace check counts censored paths as zero
  contributions (their true value is below exp(-q * horizon));
* penalization-limit ratios drop unresolved paths from numerator and
  denominator alike, as the ratio form allows.

Every weighted check takes one :class:`PenalizationParams`, and a clock
family gives one :class:`_Clock` per parameter, read through :func:`_rung`.

Fixed-seed runs are bit-identical across repetitions and scheduling
because every path owns a stream keyed by (master seed, check tag,
path index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .models import LevyModel
# walk_one is re-exported: instrumentation wraps it by name in this module
from .pathsim import (NOT_HIT, MCConfig, PathPlan, WalkState, _batch_stderr,  # noqa: F401
                      walk_ensemble, walk_one)
from .penalization import (DecayRateEstimate, MCDegenerateError,
                           PenalizationParams, _check_clock_level,
                           _weight_plan_levels, estimate_decay_rate,
                           _exp, inverse_clock_value, local_time_until_either_hit,
                           local_time_until_hit, martingale_factor, path_weight)
from .resolvent import H_CLOSED_FORM, resolvent_density

__all__ = [
    "CheckReport",
    "DegenerateStartError",
    "IndicatorAbove",
    "ClippedIdentity",
    "ExponentialClockFamily",
    "HittingClockFamily",
    "TwoPointClockFamily",
    "InverseLocalTimeClockFamily",
    "LocalTimeBudgetClockFamily",
    "check_identity_local_time_until_hit",
    "check_identity_local_time_until_either_hit",
    "check_inverse_lt_laplace",
    "check_martingale",
    "check_inverse_clock_martingale",
    "check_penalization_limit",
]

_TAG_HB = 101
_TAG_HC = 102
_TAG_LAPLACE = 103
_TAG_MARTINGALE = 201
_TAG_INV_CLOCK = 301
_TAG_LIMIT = 501


class DegenerateStartError(RuntimeError):
    """The limit martingale vanishes at the start point; no theorem applies."""


@dataclass
class CheckReport:
    """One tolerance-gated comparison, self-auditing.

    ``metadata`` records everything needed to recompute the pass bit and
    to reproduce the run (model, parameters, clock, seed, grid).
    """

    name: str
    estimate: float
    stderr: float
    target: float
    tol_extra: float
    passed: bool
    censored_fraction: float
    metadata: dict = field(default_factory=dict)

    def recompute_pass(self) -> bool:
        z = self.metadata["z"]
        budget = self.metadata["censor_budget"]
        return (abs(self.estimate - self.target) <= z * self.stderr + self.tol_extra
                and self.censored_fraction <= budget)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "target": self.target,
            "tol_extra": self.tol_extra,
            "pass": self.passed,
            "censored_fraction": self.censored_fraction,
            "metadata": self.metadata,
        }


def _meta(model: LevyModel, mc: MCConfig, **extra) -> dict:
    meta = {
        "model": model.config_items(),
        "seed": mc.master_seed,
        "n_paths": mc.n_paths,
        "dt": mc.grid.dt,
        "eps": mc.grid.eps,
        "horizon": mc.grid.horizon,
        "z": mc.z,
        "censor_budget": mc.censor_budget,
    }
    meta.update(extra)
    return meta


def _finish(name, estimate, stderr, target, tol_extra, censored, meta) -> CheckReport:
    report = CheckReport(name=name, estimate=float(estimate), stderr=float(stderr),
                         target=float(target), tol_extra=float(tol_extra), passed=False,
                         censored_fraction=float(censored), metadata=meta)
    report.passed = report.recompute_pass()
    return report


def _params_meta(params: PenalizationParams) -> dict:
    return {"a": params.a, "b": params.b,
            "lambda_a": params.lambda_a, "lambda_b": params.lambda_b,
            "gamma": params.gamma, "regime": params.regime}


# ---------------------------------------------------------------------------
# expected-local-time identities

def _exposure_identity(model, mc, plan, target, tol_extra, name, tag, meta_extra):
    rec = walk_ensemble(model, 0.0, mc.grid, plan, mc.master_seed, tag, mc.n_paths)
    exposure, death = rec.final.local_times[:, 0], rec.stopped.astype(float)
    deaths = death.sum()
    if deaths == 0:
        raise MCDegenerateError("no path hit the target levels within the horizon")
    estimate = exposure.sum() / deaths
    stderr = _batch_stderr(exposure, death)
    censored = 1.0 - deaths / mc.n_paths
    meta = _meta(model, mc, estimator="exposure-rate", **meta_extra)
    return _finish(name, estimate, stderr, target, tol_extra, censored, meta)


def check_identity_local_time_until_hit(model: LevyModel, a: float, mc: MCConfig,
                                        tol_extra: float | None = None) -> CheckReport:
    """E_0[L^0 until hitting a] against the closed form h(a) + h(-a)."""
    if a == 0.0:
        raise ValueError("the hit level must differ from the origin")
    target = local_time_until_hit(model, a)
    if tol_extra is None:
        tol_extra = 0.01 * target
    plan = PathPlan(tracked_levels=(0.0,), hit_levels=(a,), stop_hit_levels=(a,))
    extra = {"a": a, "h_crosscheck": H_CLOSED_FORM[model.kind]}
    return _exposure_identity(model, mc, plan, target, tol_extra,
                              "identity:local-time-until-hit", _TAG_HB, extra)


def check_identity_local_time_until_either_hit(model: LevyModel, a: float, b: float,
                                               mc: MCConfig,
                                               tol_extra: float | None = None) -> CheckReport:
    """E_0[L^0 until hitting a or b] against the corrected two-point formula."""
    if a == b or a == 0.0 or b == 0.0:
        raise ValueError("levels must be distinct and away from the origin")
    target = local_time_until_either_hit(model, a, b)
    if tol_extra is None:
        tol_extra = 0.01 * target
    plan = PathPlan(tracked_levels=(0.0,), hit_levels=(a, b), stop_hit_levels=(a, b))
    return _exposure_identity(model, mc, plan, target, tol_extra,
                              "identity:local-time-until-either-hit", _TAG_HC,
                              {"a": a, "b": b})


def check_inverse_lt_laplace(model: LevyModel, q: float, level_budget: float,
                             mc: MCConfig, tol_extra: float | None = None) -> CheckReport:
    """E_0[exp(-q eta_l^0)] against exp(-l / r_q(0)).

    Censored paths contribute zero; their true contribution is below
    exp(-q horizon), recorded in the metadata as a bias bound.
    """
    if not (q > 0 and level_budget > 0):
        raise ValueError("q and the local-time budget must be positive")
    target = float(_exp(-level_budget / resolvent_density(model, q, 0.0)))
    if tol_extra is None:
        tol_extra = 0.02 * target
    plan = PathPlan(tracked_levels=(0.0,), lt_level=0.0, lt_thresholds=(level_budget,))
    n = mc.n_paths
    steps = walk_ensemble(model, 0.0, mc.grid, plan, mc.master_seed, _TAG_LAPLACE,
                          n).crossings[level_budget].step
    crossed = steps != NOT_HIT
    censored = n - int(crossed.sum())
    vals = np.zeros(n)
    vals[crossed] = _exp(-q * steps[crossed] * mc.grid.dt)
    estimate = vals.mean()
    stderr = _batch_stderr(vals)
    meta = _meta(model, mc, q=q, level_budget=level_budget,
                 censored_bias_bound=float(_exp(-q * mc.grid.horizon)) * censored / n,
                 estimator="mean-with-censored-as-zero")
    return _finish("identity:inverse-lt-laplace", estimate, stderr, target,
                   tol_extra, censored / n, meta)


# ---------------------------------------------------------------------------
# martingale checks

def _snapshot_steps(t_grid, grid) -> tuple:
    """Sorted snapshot times and their grid steps, all within [0, horizon]."""
    t_grid = tuple(sorted(float(t) for t in t_grid))
    if not (t_grid and all(0.0 <= t <= grid.horizon + 1e-12 for t in t_grid)):
        raise ValueError(f"t grid {t_grid} must be nonempty and lie within the "
                         f"horizon [0, {grid.horizon}]")
    return t_grid, tuple(int(round(t / grid.dt)) for t in t_grid)


class _Reference(NamedTuple):
    """Closed-form martingale a check compares against.

    ``value`` reads it off walked states, one value per row: the position
    factor at each row's position times its local-time side.
    """

    params: PenalizationParams   # the weight, and the tilt of the factor
    start: float                 # its value at x0
    value: Callable              # (plan, walked states) -> its value in each row
    meta: dict                   # report fields it adds


def _factor_reference(model: LevyModel, params: PenalizationParams, x0: float) -> _Reference:
    """Position factor at X_t times the weight at t.

    Raises :class:`DegenerateStartError` where the factor vanishes at x0:
    no penalization limit exists from there.
    """
    start = float(martingale_factor(model, params, x0))
    if start <= 0.0:
        raise DegenerateStartError(
            f"martingale factor vanishes at x0={x0} toward gamma={params.gamma}; "
            f"pick an admissible start")

    def value(plan, state):
        return martingale_factor(model, params, state.x) * path_weight(params, plan, state)
    return _Reference(params, start, value, {})


def _local_time_reference(params: PenalizationParams, c: float,
                          rate: DecayRateEstimate) -> _Reference:
    """exp(L_t^c * rate) times the weight at t, with the decay-rate estimate."""
    def value(plan, state):
        return inverse_clock_value(params, plan, c, rate.estimate, state)
    return _Reference(params, 1.0, value,
                      {"rate_estimate": rate.estimate, "rate_stderr": rate.stderr})


def _snapshot_reports(name, model, x0, t_grid, mc, plan, ref, tag, tol_extra, censored,
                      **meta_extra) -> list[CheckReport]:
    """The reference's ensemble mean at each snapshot time against its start value."""
    rec = walk_ensemble(model, x0, mc.grid, plan, mc.master_seed, tag, mc.n_paths)
    reports = []
    for t, s in zip(t_grid, plan.snapshot_steps):
        snap = rec.snapshots[s]
        values = ref.value(plan, snap)
        meta = _meta(model, mc, t=t, x0=x0, **meta_extra, **ref.meta)
        reports.append(_finish(f"{name}:t={t}", values.mean(), _batch_stderr(values),
                               ref.start, tol_extra, censored, meta))
    return reports


def check_martingale(model: LevyModel, params: PenalizationParams, t_grid,
                     x0: float, mc: MCConfig,
                     tol_extra: float | None = None) -> list[CheckReport]:
    """E_x0[factor(X_t) * weight_t] against factor(x0), one report per t.

    Requires a start with a positive factor (:class:`DegenerateStartError`).
    """
    ref = _factor_reference(model, params, x0)
    if tol_extra is None:
        tol_extra = 0.03 * ref.start
    t_grid, steps = _snapshot_steps(t_grid, mc.grid)
    tracked, hit = _weight_plan_levels(params)
    plan = PathPlan(tracked_levels=tracked, hit_levels=hit, snapshot_steps=steps)
    return _snapshot_reports("martingale", model, x0, t_grid, mc, plan, ref,
                             _TAG_MARTINGALE, tol_extra, 0.0,
                             params=_params_meta(params), start_factor=ref.start)


def check_inverse_clock_martingale(model: LevyModel, params: PenalizationParams, c: float,
                                   t_grid, x0: float, mc: MCConfig,
                                   rate: DecayRateEstimate | None = None,
                                   tol_extra: float = 0.05) -> list[CheckReport]:
    """Mean of exp(L_t^c * rate) * weight_t against its unit start value.

    The decay rate is estimated first (or injected).  The process is not
    a martingale: it lacks the position factor g(X_t), the expected
    weight at the clock from X_t, so its mean drifts above 1 from x0 = c
    and the check fails by design.  ROADMAP.md's direction 1 builds the
    compensated process exp(kappa L_t^c) W_t g(X_t).
    """
    t_grid, steps = _snapshot_steps(t_grid, mc.grid)
    _check_clock_level(c, params.a, params.b)
    if rate is None:
        rate = estimate_decay_rate(model, params, c, mc)
    tracked, hit = _weight_plan_levels(params, c)
    plan = PathPlan(tracked_levels=tracked, hit_levels=hit, snapshot_steps=steps)
    return _snapshot_reports("inverse-clock-martingale", model, x0, t_grid, mc, plan,
                             _local_time_reference(params, c, rate), _TAG_INV_CLOCK,
                             tol_extra, rate.censored_fraction,
                             a=params.a, b=params.b, c=c, lambda_a=params.lambda_a,
                             lambda_b=params.lambda_b, rate_residuals=list(rate.residuals),
                             rate_censored_fraction=rate.censored_fraction)


# ---------------------------------------------------------------------------
# penalization-limit ratio checks

@dataclass(frozen=True)
class IndicatorAbove:
    """Bounded cylinder functional 1{X_t > threshold}."""

    threshold: float

    @property
    def name(self) -> str:
        return f"indicator-above:{self.threshold}"

    def __call__(self, x):
        return (np.asarray(x, dtype=float) > self.threshold).astype(float)


@dataclass(frozen=True)
class ClippedIdentity:
    """Bounded cylinder functional clip(X_t, lo, hi)."""

    lo: float
    hi: float

    @property
    def name(self) -> str:
        return f"clipped-identity:[{self.lo},{self.hi}]"

    def __call__(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)


class _Clock(NamedTuple):
    """One parameter of a clock family: how its clock rings.

    The clock rings at the first detection of one of ``hit_levels``, at
    the inverse local time ``lt = (level, budget)``, or at the step
    ``draw(rng, dt)`` draws per path before the walk.
    """

    param: float
    meta: dict                   # the report's clock fields
    hit_levels: tuple = ()
    lt: tuple | None = None
    draw: Callable | None = None


def _rung(rec, clock: _Clock) -> WalkState:
    """States of walked paths when the clock rang; step NOT_HIT where it did not."""
    if clock.lt is not None:
        return rec.crossings[clock.lt[1]]
    states = [rec.hit_states[lv] for lv in clock.hit_levels]
    if not states:
        return rec.clock_state
    first, rows = np.argmin([st.step for st in states], axis=0), np.arange(len(rec.stopped))
    return WalkState(*(np.stack(field)[first, rows] for field in zip(*states)))


def _check_schedule(family, values, ok, size, what: str) -> None:
    """Reject a schedule that is empty, not finite, fails ``ok``, or whose
    ``size`` does not grow strictly: only its last row carries the verdict."""
    sizes = [size(v) for v in values]
    if not (values and all(math.isfinite(v) and ok(v) for v in values)
            and all(s0 < s1 for s0, s1 in zip(sizes, sizes[1:]))):
        raise ValueError(f"{type(family).__name__}: {what} must form a nonempty, finite "
                         f"schedule, strictly monotone toward the limit; got {values}")


class _ClockFamily:
    """A schedule of clock parameters that drives the clock to infinity.

    ``clocks()`` gives one :class:`_Clock` per parameter.  The reference
    martingale is the position factor tilted toward ``gamma_eff`` times
    the weight.
    """

    def reference(self, model, params, x0, mc, rate) -> _Reference:
        return _factor_reference(model, replace(params, gamma=self.gamma_eff), x0)


def _check_levels(family, cs) -> None:
    _check_schedule(family, cs, lambda c: c * cs[0] > 0, abs,
                    "clock levels (nonzero, one-signed, |c| growing)")


@dataclass(frozen=True)
class ExponentialClockFamily(_ClockFamily):
    """Independent exponential clocks, schedule of rates decreasing to 0."""

    qs: tuple
    gamma_eff = 0.0

    def __post_init__(self):
        _check_schedule(self, self.qs, lambda q: q > 0, lambda q: -q,
                        "clock rates (positive, falling)")

    def clocks(self) -> list:
        return [_Clock(q, {"family": "exponential", "q": q},
                       draw=lambda rng, dt, q=q: int(rng.exponential(1.0 / q) / dt))
                for q in self.qs]


@dataclass(frozen=True)
class HittingClockFamily(_ClockFamily):
    """Hitting clocks T_c along a schedule of same-signed levels, |c| growing."""

    cs: tuple

    def __post_init__(self):
        _check_levels(self, self.cs)

    @property
    def gamma_eff(self) -> float:
        return math.copysign(1.0, self.cs[0])

    def clocks(self) -> list:
        return [_Clock(c, {"family": "hitting", "c": c}, hit_levels=(c,)) for c in self.cs]


@dataclass(frozen=True)
class TwoPointClockFamily(_ClockFamily):
    """Two-point clocks T_c ^ T_{-d} along the directed path to infinity.

    c = r (1 - gamma) + sqrt(r) and d = r (1 + gamma) + sqrt(r): both
    thresholds diverge for every direction in [-1, 1], endpoints
    included, while the asymmetry (d - c)/(c + d) tends to gamma.
    """

    gamma: float
    rs: tuple

    def __post_init__(self):
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"TwoPointClockFamily: direction {self.gamma} must lie in [-1, 1]")
        _check_schedule(self, self.rs, lambda r: r > 0, abs, "radii (positive, growing)")

    @property
    def gamma_eff(self) -> float:
        return self.gamma

    def clocks(self) -> list:
        out = []
        for r in self.rs:
            c, d = r * (1.0 - self.gamma) + math.sqrt(r), r * (1.0 + self.gamma) + math.sqrt(r)
            out.append(_Clock(r, {"family": "two-point", "r": r, "gamma": self.gamma,
                                  "c": c, "d": d}, hit_levels=(c, -d)))
        return out


@dataclass(frozen=True)
class InverseLocalTimeClockFamily(_ClockFamily):
    """Inverse-local-time clocks eta_u^c at fixed budget u, |c| growing."""

    cs: tuple
    u: float = 1.0

    def __post_init__(self):
        _check_levels(self, self.cs)
        if not (math.isfinite(self.u) and self.u > 0):
            raise ValueError(f"InverseLocalTimeClockFamily: budget {self.u} must be finite, > 0")

    @property
    def gamma_eff(self) -> float:
        return math.copysign(1.0, self.cs[0])

    def clocks(self) -> list:
        return [_Clock(c, {"family": "inverse-lt", "c": c, "u": self.u}, lt=(c, self.u))
                for c in self.cs]


@dataclass(frozen=True)
class LocalTimeBudgetClockFamily(_ClockFamily):
    """Inverse-local-time clocks eta_u^c at fixed level c, budget u growing.

    The reference process is exp(L_t^c * rate) * weight_t with the Monte
    Carlo decay-rate estimate; no directional tilt is involved.  It is
    not a martingale: it lacks the position factor g(X_t), the expected
    weight at the clock from X_t, so the two sides part (Brownian motion,
    points 1 and 2 at rates (1, 1), c = x0 = 0, u = 1: target 0.549,
    conditioned side 0.407 +- 0.005).  ROADMAP.md's direction 1 mends it.
    For a model with a Gaussian part, an avoided point strictly between
    x0 and c leaves no walked path a positive weight at the clock: every
    path hits it, or with jumps the walker's straddle rule counts it hit.
    The set-up is rejected before any walk, with
    :class:`DegenerateStartError` or :class:`MCDegenerateError` in turn.
    """

    c: float
    us: tuple

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError(f"LocalTimeBudgetClockFamily: clock level {self.c} must be finite")
        _check_schedule(self, self.us, lambda u: u > 0, abs, "budgets (positive, growing)")

    def clocks(self) -> list:
        return [_Clock(u, {"family": "inverse-lt-budget", "c": self.c, "u": u},
                       lt=(self.c, u)) for u in self.us]

    def reference(self, model, params, x0, mc, rate) -> _Reference:
        _check_clock_level(self.c, params.a, params.b)
        for point in _weight_plan_levels(params)[1]:
            if model.has_gaussian_part and min(x0, self.c) < point < max(x0, self.c):
                error = DegenerateStartError if model.continuous_paths else MCDegenerateError
                why = ("every path hits it" if model.continuous_paths
                       else "the walker's straddle rule counts every path as hitting it")
                raise error(f"avoided point {point} lies between x0={x0} and the clock "
                            f"level c={self.c}: {why} before the clock rings")
        if rate is None:
            rate = estimate_decay_rate(model, params, self.c, mc)
        return _local_time_reference(params, self.c, rate)


def check_penalization_limit(model: LevyModel, params: PenalizationParams,
                             clock_family, functional, t: float, x0: float,
                             mc: MCConfig, tol_extra: float | None = None,
                             rate: DecayRateEstimate | None = None) -> list[CheckReport]:
    """Weighted-ratio convergence check for one clock family.

    For each clock parameter the simulated conditioned ratio

        sum_i F(X_t^i) W_i / sum_i W_i        (W = weight at the clock)

    is compared against the reference ratio E[F(X_t) M_t] / M_0 computed
    with the closed-form martingale on the same ensemble.  One report
    per parameter; the final, most extreme parameter carries the
    theorem's verdict, earlier entries chart the approach.  The stored
    stderr is the batch stderr of the paired difference of the sides.
    """
    _, (t_step,) = _snapshot_steps((t,), mc.grid)
    ref = clock_family.reference(model, params, x0, mc, rate)
    clocks = clock_family.clocks()
    reports = []
    for k, clock in enumerate(clocks):
        lt_level, budget = clock.lt or (None, None)
        tracked, avoid = _weight_plan_levels(params, *([] if lt_level is None else [lt_level]))
        hit_all = tuple(sorted({*avoid, *clock.hit_levels}))
        plan = PathPlan(tracked_levels=tracked, hit_levels=hit_all, stop_hit_levels=hit_all,
                        lt_level=lt_level, lt_thresholds=() if budget is None else (budget,),
                        snapshot_steps=(t_step,))
        draw = None if clock.draw is None else (lambda rng: clock.draw(rng, mc.grid.dt))
        rec = walk_ensemble(model, x0, mc.grid, plan, mc.master_seed, _TAG_LIMIT + k,
                            mc.n_paths, draw)
        snap, rung = rec.snapshots[t_step], _rung(rec, clock)
        f_t = functional(snap.x)
        # conditioned side: weight at the clock time.  A walk stopped before
        # its clock rang was stopped by an avoided point: it is resolved with
        # zero weight, not censored
        rang = rung.step != NOT_HIT
        lhs_den = np.where(rang, path_weight(params, plan, rung), 0.0)
        lhs_num = np.where(rang, f_t * lhs_den, 0.0)
        resolved = lhs_den.sum()
        if resolved == 0:
            raise MCDegenerateError(
                f"no path resolved the clock comparison at parameter {clock.param}")
        # closed-form martingale value at t over the reference's start value
        rhs = f_t * ref.value(plan, snap) / ref.start
        lhs = lhs_num.sum() / resolved
        rhs_mean = rhs.mean()
        stderr = _batch_stderr(lhs_num, lhs_den, rhs)
        te = 0.05 * max(abs(rhs_mean), 0.1) if tol_extra is None else tol_extra
        meta = _meta(model, mc, params=_params_meta(ref.params), clock=clock.meta,
                     functional=functional.name, t=t, x0=x0,
                     reference_start=ref.start,
                     survivor_weight=float(resolved),
                     # only the most extreme parameter carries the verdict;
                     # earlier rows chart the approach to the limit
                     final=(k == len(clocks) - 1), **ref.meta)
        censored = np.count_nonzero(~rang & ~rec.stopped) / mc.n_paths
        reports.append(_finish(f"limit:{clock.meta['family']}:{clock.param}", lhs, stderr,
                               rhs_mean, te, censored, meta))
    return reports
