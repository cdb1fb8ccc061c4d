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
  accumulated local time over number of detected hits); the strong
  Markov structure keeps it unbiased under any adapted censoring,
  whereas the plain mean over uncensored paths is biased by double-digit
  percents at affordable horizons;
* the inverse-local-time Laplace check counts censored paths as zero
  contributions (their true value is below exp(-q * horizon));
* penalization-limit ratios drop unresolved paths from numerator and
  denominator alike, as the ratio form allows.

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
from .pathsim import MCConfig, PathPlan, path_stream, walk_one
from .penalization import (UNWEIGHTED, DecayRateEstimate, PenalizationParams,
                           estimate_decay_rate, inverse_clock_value,
                           local_time_until_either_hit, local_time_until_hit,
                           martingale_factor, path_weight,
                           zero_resolvent_cached_fn)
from .resolvent import resolvent_density

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


def _finish(name, estimate, stderr, target, tol_extra, censored, mc, meta) -> CheckReport:
    passed = (abs(estimate - target) <= mc.z * stderr + tol_extra
              and censored <= mc.censor_budget)
    return CheckReport(name=name, estimate=float(estimate), stderr=float(stderr),
                       target=float(target), tol_extra=float(tol_extra),
                       passed=bool(passed), censored_fraction=float(censored),
                       metadata=meta)


def _batch_stderr(values: np.ndarray, n_batches: int) -> float:
    means = values.reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def _ratio_batch_stderr(num: np.ndarray, den: np.ndarray, n_batches: int) -> float:
    """Batch stderr of sum(num)/sum(den); batches with empty denominators drop."""
    ns = num.reshape(n_batches, -1).sum(axis=1)
    ds = den.reshape(n_batches, -1).sum(axis=1)
    ok = ds > 0
    if ok.sum() < 2:
        return math.inf
    ratios = ns[ok] / ds[ok]
    return float(ratios.std(ddof=1) / math.sqrt(ok.sum()))


def _params_meta(params: PenalizationParams) -> dict:
    return {"a": params.a, "b": params.b,
            "lambda_a": params.lambda_a, "lambda_b": params.lambda_b,
            "gamma": params.gamma, "regime": params.regime}


# ---------------------------------------------------------------------------
# expected-local-time identities

def _exposure_identity(model, mc, plan, target, tol_extra, name, seed_tag, meta_extra):
    n = mc.n_paths
    exposure = np.empty(n)
    death = np.empty(n)
    for i in range(n):
        rec = walk_one(model, 0.0, mc.grid, plan, path_stream(mc.master_seed, seed_tag, i))
        exposure[i] = rec.local_times[0]
        death[i] = 1.0 if rec.stopped else 0.0
    deaths = death.sum()
    if deaths == 0:
        raise RuntimeError("no path hit the target levels within the horizon")
    estimate = exposure.sum() / deaths
    stderr = _ratio_batch_stderr(exposure, death, mc.n_batches)
    censored = 1.0 - deaths / n
    meta = _meta(model, mc, estimator="exposure-rate", **meta_extra)
    return _finish(name, estimate, stderr, target, tol_extra, censored, mc, meta)


def check_identity_local_time_until_hit(model: LevyModel, a: float, mc: MCConfig,
                                        tol_extra: float | None = None,
                                        seed_tag: int = _TAG_HB) -> CheckReport:
    """E_0[L^0 until hitting a] against the closed form h(a) + h(-a)."""
    if a == 0.0:
        raise ValueError("the hit level must differ from the origin")
    target = local_time_until_hit(model, a)
    if tol_extra is None:
        tol_extra = 0.01 * target
    plan = PathPlan(tracked_levels=(0.0,), hit_levels=(a,), stop_hit_levels=(a,))
    extra = {"a": a, "h_crosscheck": ("direct-integral" if model.symmetric
                                      else "unavailable (asymmetric model)")}
    return _exposure_identity(model, mc, plan, target, tol_extra,
                              "identity:local-time-until-hit", seed_tag, extra)


def check_identity_local_time_until_either_hit(model: LevyModel, a: float, b: float,
                                               mc: MCConfig,
                                               tol_extra: float | None = None,
                                               seed_tag: int = _TAG_HC) -> CheckReport:
    """E_0[L^0 until hitting a or b] against the corrected two-point formula."""
    if a == b or a == 0.0 or b == 0.0:
        raise ValueError("levels must be distinct and away from the origin")
    target = local_time_until_either_hit(model, a, b)
    if tol_extra is None:
        tol_extra = 0.01 * target
    plan = PathPlan(tracked_levels=(0.0,), hit_levels=(a, b), stop_hit_levels=(a, b))
    return _exposure_identity(model, mc, plan, target, tol_extra,
                              "identity:local-time-until-either-hit", seed_tag,
                              {"a": a, "b": b})


def check_inverse_lt_laplace(model: LevyModel, q: float, level_budget: float,
                             mc: MCConfig, tol_extra: float | None = None,
                             seed_tag: int = _TAG_LAPLACE) -> CheckReport:
    """E_0[exp(-q eta_l^0)] against exp(-l / r_q(0)).

    Censored paths contribute zero; their true contribution is below
    exp(-q horizon), recorded in the metadata as a bias bound.
    """
    if not (q > 0 and level_budget > 0):
        raise ValueError("q and the local-time budget must be positive")
    target = math.exp(-level_budget / resolvent_density(model, q, 0.0))
    if tol_extra is None:
        tol_extra = 0.02 * target
    plan = PathPlan(tracked_levels=(0.0,), lt_level=0.0,
                    lt_thresholds=(level_budget,), lt_stop=True)
    n = mc.n_paths
    vals = np.zeros(n)
    censored = 0
    for i in range(n):
        rec = walk_one(model, 0.0, mc.grid, plan, path_stream(mc.master_seed, seed_tag, i))
        got = rec.crossings.get(level_budget)
        if got is None:
            censored += 1
        else:
            vals[i] = math.exp(-q * got[0] * mc.grid.dt)
    estimate = vals.mean()
    stderr = _batch_stderr(vals, mc.n_batches)
    meta = _meta(model, mc, q=q, level_budget=level_budget,
                 censored_bias_bound=math.exp(-q * mc.grid.horizon) * censored / n,
                 estimator="mean-with-censored-as-zero")
    return _finish("identity:inverse-lt-laplace", estimate, stderr, target,
                   tol_extra, censored / n, mc, meta)


# ---------------------------------------------------------------------------
# martingale checks

def _weight_plan_levels(params: PenalizationParams):
    """(levels tracked for finite rates, levels detected for infinite rates)."""
    tracked = tuple(sorted(p for p, lam in params.rates if 0 < lam < math.inf))
    hit = tuple(sorted(p for p, lam in params.rates if lam == math.inf))
    return tracked, hit


def check_martingale(model: LevyModel, params: PenalizationParams, t_grid,
                     x0: float, mc: MCConfig,
                     tol_extra: float | None = None,
                     seed_tag: int = _TAG_MARTINGALE) -> list[CheckReport]:
    """E_x0[factor(X_t) * weight_t] against factor(x0), one report per t.

    Requires a start with a positive factor; a vanishing factor means no
    penalization limit exists from there and raises
    :class:`DegenerateStartError`.
    """
    if params.regime == UNWEIGHTED:
        raise ValueError("martingale check needs a genuine weight regime")
    h = zero_resolvent_cached_fn(model)
    target = float(martingale_factor(model, params, x0, h=h))
    if target <= 0.0:
        raise DegenerateStartError(
            f"martingale factor vanishes at x0={x0}; pick an admissible start")
    if tol_extra is None:
        tol_extra = 0.03 * target
    t_grid = tuple(sorted(float(t) for t in t_grid))
    if t_grid[-1] > mc.grid.horizon + 1e-12:
        raise ValueError("t grid must lie within the horizon")
    steps = tuple(int(round(t / mc.grid.dt)) for t in t_grid)
    tracked, hit = _weight_plan_levels(params)
    plan = PathPlan(tracked_levels=tracked, hit_levels=hit, snapshot_steps=steps)

    n = mc.n_paths
    weights = np.empty((len(steps), n))
    positions = np.empty((len(steps), n))
    for i in range(n):
        rec = walk_one(model, x0, mc.grid, plan, path_stream(mc.master_seed, seed_tag, i))
        for j, s in enumerate(steps):
            x_t, lts, hsteps = rec.snapshots[s]
            weights[j, i] = path_weight(params.rates, plan, s, lts, hsteps)
            positions[j, i] = x_t

    reports = []
    for j, t in enumerate(t_grid):
        prod = martingale_factor(model, params, positions[j], h=h) * weights[j]
        estimate = prod.mean()
        stderr = _batch_stderr(prod, mc.n_batches)
        meta = _meta(model, mc, params=_params_meta(params), t=t, x0=x0,
                     start_factor=target)
        reports.append(_finish(f"martingale:t={t}", estimate, stderr, target,
                               tol_extra, 0.0, mc, meta))
    return reports


def check_inverse_clock_martingale(model: LevyModel, a: float, b: float, c: float,
                                   lambda_a: float, lambda_b: float, t_grid,
                                   x0: float, mc: MCConfig, u0: float = 1.0,
                                   rate: DecayRateEstimate | None = None,
                                   tol_extra: float = 0.05,
                                   seed_tag: int = _TAG_INV_CLOCK) -> list[CheckReport]:
    """Mean of exp(L_t^c * rate) * weight_t against its unit start value.

    The decay rate is estimated first (or injected); a failure here
    indicts either that estimate or the martingale identity itself.
    """
    if rate is None:
        rate = estimate_decay_rate(model, a, b, c, lambda_a, lambda_b, mc, u0=u0)
    params = PenalizationParams(a=a, b=b, lambda_a=lambda_a, lambda_b=lambda_b)
    t_grid = tuple(sorted(float(t) for t in t_grid))
    steps = tuple(int(round(t / mc.grid.dt)) for t in t_grid)
    tracked, hit = _weight_plan_levels(params)
    tracked = tuple(sorted(set(tracked) | {c}))
    plan = PathPlan(tracked_levels=tracked, hit_levels=hit, snapshot_steps=steps)

    n = mc.n_paths
    vals = np.empty((len(steps), n))
    for i in range(n):
        rec = walk_one(model, x0, mc.grid, plan, path_stream(mc.master_seed, seed_tag, i))
        for j, s in enumerate(steps):
            _, lts, hsteps = rec.snapshots[s]
            vals[j, i] = inverse_clock_value(params.rates, plan, c, rate.estimate, s,
                                             lts, hsteps)

    reports = []
    for j, t in enumerate(t_grid):
        estimate = vals[j].mean()
        stderr = _batch_stderr(vals[j], mc.n_batches)
        meta = _meta(model, mc, a=a, b=b, c=c, lambda_a=lambda_a, lambda_b=lambda_b,
                     t=t, x0=x0, rate_estimate=rate.estimate, rate_stderr=rate.stderr,
                     rate_residuals=list(rate.residuals),
                     rate_censored_fraction=rate.censored_fraction)
        reports.append(_finish(f"inverse-clock-martingale:t={t}", estimate, stderr,
                               1.0, tol_extra, rate.censored_fraction, mc, meta))
    return reports


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


class _Reference(NamedTuple):
    """Closed-form martingale a limit check compares against."""

    params: PenalizationParams   # the penalization with the family's tilt
    start: float                 # its value at x0
    value: Callable              # (plan, step, snapshot) -> value at the snapshot
    meta: dict                   # report fields it adds


class _ClockFamily:
    """Behaviour shared by the clock families of the limit check.

    A family is a schedule of clock parameters that drives the clock to
    infinity.  For one parameter, a clock rings at the first detection
    of one of its ``hit_levels``, at the inverse local time of its
    ``lt_clock`` (level, budget), or at a step drawn per path before the
    walk (``draw_step``).  The reference martingale is the position
    factor tilted toward ``gamma_eff`` times the weight.
    """

    def hit_levels(self, param) -> tuple:
        return ()

    def lt_clock(self, param):
        return None

    def draw_step(self, rng, param, dt):
        return None

    def rung(self, rec, param):
        """(step, local times) at which the clock rang on a walked path, or None."""
        lt_clock = self.lt_clock(param)
        if lt_clock is not None:
            got = rec.crossings.get(lt_clock[1])
            return None if got is None else (got[0], got[1])
        states = [rec.hit_states[lv] for lv in self.hit_levels(param) if lv in rec.hit_states]
        state = min(states, key=lambda st: st[0]) if states else rec.clock_state
        return None if state is None else (state[0], state[2])

    def reference(self, model, params, x0, mc, rate) -> _Reference:
        params_eff = replace(params, gamma=self.gamma_eff)
        h = zero_resolvent_cached_fn(model)
        m0 = float(martingale_factor(model, params_eff, x0, h=h))
        if m0 <= 0.0:
            raise DegenerateStartError(
                f"limit martingale starts at zero from x0={x0} toward "
                f"gamma={self.gamma_eff}; the theorem presumes a positive start")

        def value(plan, step, snap):
            x_t, lts, hsteps = snap
            return (float(martingale_factor(model, params_eff, x_t, h=h))
                    * path_weight(params.rates, plan, step, lts, hsteps))
        return _Reference(params_eff, m0, value, {})


def _one_signed_levels(cs) -> bool:
    return (all(math.isfinite(c) for c in cs) and 0.0 not in cs
            and len({math.copysign(1.0, c) for c in cs}) == 1)


@dataclass(frozen=True)
class ExponentialClockFamily(_ClockFamily):
    """Independent exponential clocks, schedule of rates decreasing to 0."""

    qs: tuple
    gamma_eff = 0.0

    def __post_init__(self):
        if not all(q > 0 for q in self.qs):
            raise ValueError("clock rates must be positive")

    @property
    def schedule(self) -> tuple:
        return tuple(self.qs)

    def meta(self, q) -> dict:
        return {"family": "exponential", "q": q}

    def draw_step(self, rng, q, dt):
        return int(rng.exponential(1.0 / q) / dt)


@dataclass(frozen=True)
class HittingClockFamily(_ClockFamily):
    """Hitting clocks T_c along a schedule of same-signed levels, |c| growing."""

    cs: tuple

    def __post_init__(self):
        if not _one_signed_levels(self.cs):
            raise ValueError("hitting clock levels must be finite, nonzero and one-signed")

    @property
    def gamma_eff(self) -> float:
        return math.copysign(1.0, self.cs[0])

    @property
    def schedule(self) -> tuple:
        return tuple(self.cs)

    def meta(self, c) -> dict:
        return {"family": "hitting", "c": c}

    def hit_levels(self, c) -> tuple:
        return (c,)


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
            raise ValueError("direction must lie in [-1, 1]")
        if not all(r > 0 for r in self.rs):
            raise ValueError("radii must be positive")

    @property
    def gamma_eff(self) -> float:
        return self.gamma

    @property
    def schedule(self) -> tuple:
        return tuple(self.rs)

    def thresholds(self, r: float) -> tuple:
        return (r * (1.0 - self.gamma) + math.sqrt(r),
                r * (1.0 + self.gamma) + math.sqrt(r))

    def meta(self, r) -> dict:
        c, d = self.thresholds(r)
        return {"family": "two-point", "r": r, "gamma": self.gamma, "c": c, "d": d}

    def hit_levels(self, r) -> tuple:
        c, d = self.thresholds(r)
        return (c, -d)


@dataclass(frozen=True)
class InverseLocalTimeClockFamily(_ClockFamily):
    """Inverse-local-time clocks eta_u^c at fixed budget u, |c| growing."""

    cs: tuple
    u: float = 1.0

    def __post_init__(self):
        if not _one_signed_levels(self.cs):
            raise ValueError("clock levels must be finite, nonzero and one-signed")
        if not self.u > 0:
            raise ValueError("local-time budget must be positive")

    @property
    def gamma_eff(self) -> float:
        return math.copysign(1.0, self.cs[0])

    @property
    def schedule(self) -> tuple:
        return tuple(self.cs)

    def meta(self, c) -> dict:
        return {"family": "inverse-lt", "c": c, "u": self.u}

    def lt_clock(self, c):
        return (c, self.u)


@dataclass(frozen=True)
class LocalTimeBudgetClockFamily(_ClockFamily):
    """Inverse-local-time clocks eta_u^c at fixed level c, budget u growing.

    The reference martingale is exp(L_t^c * rate) * weight_t with the
    Monte Carlo decay-rate estimate; no directional tilt is involved.
    """

    c: float
    us: tuple

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError(f"clock level must be finite, got {self.c}")
        if list(self.us) != sorted(self.us) or not all(u > 0 for u in self.us):
            raise ValueError("budgets must be positive and ascending")

    @property
    def schedule(self) -> tuple:
        return tuple(self.us)

    def meta(self, u) -> dict:
        return {"family": "inverse-lt-budget", "c": self.c, "u": u}

    def lt_clock(self, u):
        return (self.c, u)

    def reference(self, model, params, x0, mc, rate) -> _Reference:
        if rate is None:
            rate = estimate_decay_rate(model, params.a, params.b, self.c,
                                       params.lambda_a, params.lambda_b, mc)

        def value(plan, step, snap):
            _, lts, hsteps = snap
            return inverse_clock_value(params.rates, plan, self.c, rate.estimate, step,
                                       lts, hsteps)
        return _Reference(params, 1.0, value,
                          {"rate_estimate": rate.estimate, "rate_stderr": rate.stderr})


def check_penalization_limit(model: LevyModel, params: PenalizationParams,
                             clock_family, functional, t: float, x0: float,
                             mc: MCConfig, tol_extra: float | None = None,
                             rate: DecayRateEstimate | None = None,
                             seed_tag: int = _TAG_LIMIT) -> list[CheckReport]:
    """Weighted-ratio convergence check for one clock family.

    For each clock parameter the simulated conditioned ratio

        sum_i F(X_t^i) W_i / sum_i W_i        (W = weight at the clock)

    is compared against the reference ratio E[F(X_t) M_t] / M_0 computed
    with the closed-form martingale on the same ensemble.  One report
    per parameter; the final, most extreme parameter carries the
    theorem's verdict, earlier entries chart the approach.  The stored
    stderr is the batch stderr of the paired difference of the sides.
    """
    if params.regime == UNWEIGHTED:
        raise ValueError("limit check needs a genuine weight regime")
    ref = clock_family.reference(model, params, x0, mc, rate)
    if t > mc.grid.horizon + 1e-12:
        raise ValueError("the functional time must lie within the horizon")
    t_step = int(round(t / mc.grid.dt))
    schedule = clock_family.schedule
    reports = []
    for k, clock_param in enumerate(schedule):
        lhs_num, lhs_den, rhs, censored = _limit_ensemble(
            model, params, clock_family, clock_param, functional,
            t_step, x0, mc, ref, seed_tag + k)
        resolved = lhs_den.sum()
        if resolved == 0:
            raise RuntimeError(
                f"no path resolved the clock comparison at parameter {clock_param}")
        lhs = lhs_num.sum() / resolved
        rhs_mean = rhs.mean()
        stderr = _paired_ratio_stderr(lhs_num, lhs_den, rhs, mc.n_batches)
        te = 0.05 * max(abs(rhs_mean), 0.1) if tol_extra is None else tol_extra
        meta = _meta(model, mc, params=_params_meta(ref.params),
                     clock=clock_family.meta(clock_param),
                     functional=functional.name, t=t, x0=x0,
                     reference_start=ref.start,
                     survivor_weight=float(resolved),
                     # only the most extreme parameter carries the verdict;
                     # earlier rows chart the approach to the limit
                     final=(k == len(schedule) - 1), **ref.meta)
        reports.append(_finish(
            f"limit:{meta['clock']['family']}:{clock_param}", lhs, stderr,
            rhs_mean, te, censored, mc, meta))
    return reports


def _limit_ensemble(model, params, family, clock_param, functional, t_step, x0, mc,
                    ref, tag):
    """One clock parameter: per-path conditioned weight and reference value."""
    finite_levels, avoid = _weight_plan_levels(params)
    clock_hits = family.hit_levels(clock_param)
    lt_level, budget = family.lt_clock(clock_param) or (None, None)
    tracked = set(finite_levels) if lt_level is None else {*finite_levels, lt_level}
    hit_all = tuple(sorted({*avoid, *clock_hits}))
    plan = PathPlan(
        tracked_levels=tuple(sorted(tracked)),
        hit_levels=hit_all,
        stop_hit_levels=hit_all,
        record_hit_levels=clock_hits,
        lt_level=lt_level,
        lt_thresholds=() if budget is None else (budget,),
        lt_stop=lt_level is not None,
        snapshot_steps=(t_step,),
    )

    n = mc.n_paths
    lhs_num = np.zeros(n)
    lhs_den = np.zeros(n)
    rhs = np.empty(n)
    censored = 0
    for i in range(n):
        rng = path_stream(mc.master_seed, tag, i)
        clock_step = family.draw_step(rng, clock_param, mc.grid.dt)
        rec = walk_one(model, x0, mc.grid,
                       plan if clock_step is None else replace(plan, clock_step=clock_step),
                       rng)

        # reference side: closed-form martingale value at t, all paths
        snap = rec.snapshots[t_step]
        f_t = float(functional(snap[0]))
        rhs[i] = f_t * ref.value(plan, t_step, snap) / ref.start

        # conditioned side: weight at the clock time
        clock = family.rung(rec, clock_param)
        if clock is None:
            # a walk stopped before its clock rang was stopped by an avoided
            # point: it is resolved with zero weight, not censored
            censored += not rec.stopped
            continue
        w_clock = path_weight(params.rates, plan, clock[0], clock[1], rec.hit_steps)
        lhs_num[i] = f_t * w_clock
        lhs_den[i] = w_clock

    return lhs_num, lhs_den, rhs, censored / n


def _paired_ratio_stderr(lhs_num, lhs_den, rhs, n_batches) -> float:
    ns = lhs_num.reshape(n_batches, -1).sum(axis=1)
    ds = lhs_den.reshape(n_batches, -1).sum(axis=1)
    rs = rhs.reshape(n_batches, -1).mean(axis=1)
    ok = ds > 0
    if ok.sum() < 2:
        return math.inf
    diffs = ns[ok] / ds[ok] - rs[ok]
    return float(diffs.std(ddof=1) / math.sqrt(ok.sum()))
