"""Discretized Levy paths with tracked local times and point-hit detection.

Local time at a level is accumulated by the occupation-window rule
``dL = dt/(2 eps) * 1{|X - level| < eps}`` evaluated at the left endpoint
of every step, the natural discretisation of the occupation-density
definition.  Point hitting follows one rule per model (``_detect_hit``):
exact-in-distribution crossing detection (straddle plus Brownian bridge)
for models with a Gaussian component, window entry for pure-jump models.

Every statistic is computed by the chunked per-path walker
(``walk_one`` under a ``PathPlan``), so ensembles never materialize whole
trajectories.  Every path owns a private stream derived from
``(master seed, tag, path index)``, which makes results reproducible
regardless of execution order or sharding.  ``simulate_path`` keeps a
whole trajectory, for the path dumps of the command line only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import LevyModel

__all__ = [
    "SimGrid",
    "MCConfig",
    "simulate_path",
    "PathPlan",
    "walk_one",
    "path_stream",
]

_MAX_STEPS = 1_000_000_000
_CHUNK = 8192
NOT_HIT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SimGrid:
    """Time step, horizon and occupation window of a simulation.

    ``eps`` defaults to 5 sqrt(dt); the constraint dt <= eps^2 keeps the
    window wide enough that the occupation estimator sees O(eps/dt)
    samples per excursion through the window.
    """

    dt: float
    horizon: float
    eps: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.dt, self.horizon, self.eps)):
            raise ValueError(f"grid fields must be finite, got dt={self.dt}, "
                             f"horizon={self.horizon}, eps={self.eps}")
        if not self.dt > 0 or not self.horizon > 0:
            raise ValueError("dt and horizon must be positive")
        if self.eps < 0:
            raise ValueError("eps must be positive (0 selects the default)")
        if self.eps == 0.0:
            object.__setattr__(self, "eps", 5.0 * math.sqrt(self.dt))
        if self.dt > self.eps**2 * (1 + 1e-12):
            raise ValueError(f"dt={self.dt} must not exceed eps^2={self.eps**2}")
        if self.horizon / self.dt > _MAX_STEPS:
            raise ValueError("step budget horizon/dt exceeds 1e9")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def delta(self) -> float:
        """Default hit-detection window half-width."""
        return 0.5 * self.eps


@dataclass(frozen=True)
class MCConfig:
    """Ensemble size, seeding and acceptance thresholds of one MC run."""

    n_paths: int
    master_seed: int
    grid: SimGrid
    z: float = 3.0
    censor_budget: float = 0.25
    n_batches: int = 50

    def __post_init__(self):
        if self.n_paths < 100:
            raise ValueError("n_paths must be at least 100")
        if not 0 <= self.censor_budget < 1:
            raise ValueError("censor_budget must lie in [0, 1)")
        if self.n_batches < 2 or self.n_paths % self.n_batches:
            raise ValueError("n_batches must divide n_paths")


# ---------------------------------------------------------------------------
# path dumps

@dataclass
class Path:
    """A realized trajectory on the simulation grid with local times."""

    grid: SimGrid
    values: np.ndarray                  # X at grid points 0..n
    tracked_levels: tuple
    local_times: dict                   # level -> L at grid points 0..n

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.grid.dt


def simulate_path(model: LevyModel, x0: float, grid: SimGrid, tracked,
                  stream: np.random.Generator) -> Path:
    """Simulate one whole path with exact increments and occupation local times."""
    n = grid.n_steps
    tracked = tuple(sorted(set(float(t) for t in tracked)))
    values = np.empty(n + 1)
    values[0] = x0
    values[1:] = x0 + np.cumsum(model.sample_increments(stream, grid.dt, n))
    unit = grid.dt / (2.0 * grid.eps)
    local_times = {}
    left = values[:-1]
    for lv in tracked:
        inc = unit * (np.abs(left - lv) < grid.eps)
        lt = np.empty(n + 1)
        lt[0] = 0.0
        np.cumsum(inc, out=lt[1:])
        local_times[lv] = lt
    return Path(grid=grid, values=values, tracked_levels=tracked, local_times=local_times)


def _detect_hit(values: np.ndarray, level: float, model: LevyModel, grid: SimGrid,
                rng: np.random.Generator):
    """First detection index into the grid-point array, or None.

    One rule per model.  With a Gaussian component, a step crosses the
    level when its endpoints straddle it or, for a same-side step, with
    the Brownian-bridge crossing probability exp(-2 d0 d1 / (sigma^2 dt));
    this makes the first-crossing time exact in distribution, detected at
    the right endpoint of the step.  Pure-jump models detect entry of a
    grid point into the window |X - level| <= delta, the honest event
    under overshoot: a step straddling the level usually jumped over it.
    """
    d = values - level
    if not model.has_gaussian_part:
        win = np.abs(d[:-1]) <= grid.delta
        return int(np.argmax(win)) if win.any() else None
    prod = d[:-1] * d[1:]
    cand = prod <= 0.0
    p = np.exp(-2.0 * np.maximum(prod, 0.0) / (model.gaussian_sigma**2 * grid.dt))
    same = ~cand & (p > 1e-14)
    if same.any():
        u = rng.random(int(same.sum()))
        fire = np.zeros(len(prod), bool)
        fire[same] = u < p[same]
        cand |= fire
    return int(np.argmax(cand)) + 1 if cand.any() else None


# ---------------------------------------------------------------------------
# ensemble walker

@dataclass(frozen=True)
class PathPlan:
    """What a walked path must track, record and stop on.

    Stops arm when any of three event kinds fires: detection of a level
    in ``stop_hit_levels``, the last local-time threshold crossing (when
    ``lt_stop``), or the personal clock step ``clock_step`` (e.g. an
    exponential clock drawn per path).  The walk halts at the first
    armed event, but never before the last fixed snapshot step, so
    snapshots are always taken on the live path.  The state at the clock
    step is recorded separately whenever the walk reaches it.
    """

    tracked_levels: tuple = ()
    hit_levels: tuple = ()
    stop_hit_levels: tuple = ()
    record_hit_levels: tuple = ()            # record full state at first detection
    lt_level: float | None = None          # level whose local time is thresholded
    lt_thresholds: tuple = ()               # ascending; each crossing is recorded
    lt_stop: bool = False                    # stop after the last threshold
    snapshot_steps: tuple = ()               # sorted global step indices
    clock_step: int | None = None            # personal clock (records and arms)

    def __post_init__(self):
        if self.lt_thresholds and list(self.lt_thresholds) != sorted(self.lt_thresholds):
            raise ValueError("lt_thresholds must be ascending")
        if any(lv not in self.hit_levels for lv in self.stop_hit_levels):
            raise ValueError("stop_hit_levels must be a subset of hit_levels")
        if any(lv not in self.hit_levels for lv in self.record_hit_levels):
            raise ValueError("record_hit_levels must be a subset of hit_levels")
        if self.lt_thresholds and (self.lt_level is None
                                   or self.lt_level not in self.tracked_levels):
            raise ValueError("thresholded level must be tracked")


@dataclass
class PathRecord:
    """Per-path outcome of a walk.

    Hit steps later than ``final_step`` mean only "not hit by any step
    the checks compare against"; detection past the stop is partial.
    """

    final_step: int
    x_final: float
    local_times: np.ndarray          # per tracked level, at the final step
    hit_steps: np.ndarray            # per hit level; NOT_HIT when undetected
    snapshots: dict = field(default_factory=dict)   # step -> (x, lt copy, hit copy)
    crossings: dict = field(default_factory=dict)   # threshold -> (step, lt copy, hit copy)
    hit_states: dict = field(default_factory=dict)  # level -> (step, x, lt copy, hit copy)
    clock_state: tuple | None = None  # (step, x, lt copy, hit copy) at the clock step
    stopped: bool = False            # a stop rule fired at or before the horizon


def path_stream(master_seed: int, tag: int, index: int) -> np.random.Generator:
    """Private stream of one path: reproducible under any scheduling."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(tag, index))))


def walk_one(model: LevyModel, x0: float, grid: SimGrid, plan: PathPlan,
             rng: np.random.Generator) -> PathRecord:
    """Walk a single path under a plan, chunk by chunk, never storing it."""
    dt = grid.dt
    unit = dt / (2.0 * grid.eps)
    horizon_step = grid.n_steps
    snap_iter = [s for s in plan.snapshot_steps if s <= horizon_step]
    arm_step = snap_iter[-1] if snap_iter else 0
    clock_step = plan.clock_step
    if clock_step is not None and clock_step > horizon_step:
        clock_step = None  # clock did not ring within the horizon

    n_track = len(plan.tracked_levels)
    track = np.array(plan.tracked_levels, dtype=float)
    hits = np.array(plan.hit_levels, dtype=float)
    stop_hit = np.array([lv in plan.stop_hit_levels for lv in plan.hit_levels])
    lt_idx = (plan.tracked_levels.index(plan.lt_level)
              if plan.lt_level is not None else -1)

    lt = np.zeros(n_track)
    hit_steps = np.full(len(hits), NOT_HIT, dtype=np.int64)
    rec = PathRecord(final_step=0, x_final=x0, local_times=lt, hit_steps=hit_steps)
    pending_thresholds = list(plan.lt_thresholds)
    earliest_stop: int | None = clock_step

    def state_at(off, x_entry, lt_entry, pos, cums, step):
        xs = x_entry if off == 0 else pos[off - 1]
        lts = lt_entry if off == 0 else lt_entry + cums[:, off - 1]
        hsnap = hit_steps.copy()
        hsnap[hsnap > step] = NOT_HIT
        return xs, lts.copy(), hsnap

    x = x0
    g = 0  # global step at the chunk start
    snap_pos = 0
    while g < horizon_step:
        n = min(_CHUNK, horizon_step - g)
        dx = model.sample_increments(rng, dt, n)
        pos = np.empty(n)
        np.cumsum(dx, out=pos)
        pos += x

        # hit detection for levels not yet detected
        seg = np.empty(n + 1)
        seg[0] = x
        seg[1:] = pos
        new_hits = []
        for k in range(len(hits)):
            if hit_steps[k] != NOT_HIT:
                continue
            idx = _detect_hit(seg, hits[k], model, grid, rng)
            if idx is not None:
                hit_steps[k] = g + idx
                new_hits.append(k)

        # occupation local times (left-endpoint rule), cumulative in-chunk
        left = seg[:-1]
        cums = np.empty((n_track, n))
        for j in range(n_track):
            np.cumsum(unit * (np.abs(left - track[j]) < grid.eps), out=cums[j])

        for k in new_hits:
            if hits[k] in plan.record_hit_levels:
                step = int(hit_steps[k])
                rec.hit_states[float(hits[k])] = (
                    step, *state_at(step - g, x, lt, pos, cums, step))

        # local-time threshold crossings: L at grid point g+i+1 equals
        # lt[lt_idx] + cums[lt_idx, i]
        while pending_thresholds:
            u = pending_thresholds[0]
            above = lt[lt_idx] + cums[lt_idx] > u
            if not above.any():
                break
            i = int(np.argmax(above))
            step = g + i + 1
            rec.crossings[u] = (step, (lt + cums[:, i]).copy(), hit_steps.copy())
            pending_thresholds.pop(0)
            if not pending_thresholds and plan.lt_stop:
                if earliest_stop is None or step < earliest_stop:
                    earliest_stop = step

        # personal clock state, recorded when the walk passes its step
        if clock_step is not None and rec.clock_state is None and g <= clock_step <= g + n:
            off = clock_step - g
            rec.clock_state = (clock_step, *state_at(off, x, lt, pos, cums, clock_step))

        # armed stop events from hits
        if stop_hit.any():
            armed = hit_steps[stop_hit]
            if armed.min() != NOT_HIT:
                first_armed = int(armed.min())
                if earliest_stop is None or first_armed < earliest_stop:
                    earliest_stop = first_armed

        stop_at = None
        if earliest_stop is not None:
            stop_at = max(earliest_stop, arm_step)
            if stop_at > g + n:
                stop_at = None

        # snapshots due in this chunk, up to the stop step if any
        chunk_end = g + n if stop_at is None else stop_at
        while snap_pos < len(snap_iter) and snap_iter[snap_pos] <= chunk_end:
            s = snap_iter[snap_pos]
            rec.snapshots[s] = state_at(s - g, x, lt, pos, cums, s)
            snap_pos += 1

        if stop_at is not None:
            xs, lts, _ = state_at(stop_at - g, x, lt, pos, cums, stop_at)
            rec.final_step = stop_at
            rec.x_final = xs
            rec.local_times = lts
            rec.hit_steps = hit_steps
            rec.stopped = True
            return rec

        x = pos[-1]
        if n_track:
            lt = lt + cums[:, -1]
        g += n

    rec.final_step = horizon_step
    rec.x_final = x
    rec.local_times = lt
    rec.hit_steps = hit_steps
    rec.stopped = False
    return rec
