"""Discretized Levy paths with tracked local times and point-hit detection.

One stepper (``_chunks``) draws every path: it is the only caller of
``model.sample_increments``, sums the draws into grid points ``_CHUNK``
steps at a time, and accrues local time through one function
(``_local_times``), the occupation-window rule
``dL = dt/(2 eps) * 1{|X - level| < eps}`` evaluated at the left endpoint
of every step, the natural discretisation of the occupation-density
definition.  Point hitting follows one rule per model (``_detect_hit``):
exact-in-distribution crossing detection (straddle plus Brownian bridge)
for models with a Gaussian component, window entry for pure-jump models.
The bridge rule draws only where its crossing probability exceeds 1e-14,
which needs d0 d1 < 16.118 sigma^2 dt for endpoint distances d0, d1; it
evaluates probabilities only on the band d0 d1 < 16.2 sigma^2 dt, a
superset, so a step far from the level costs a difference, a product and
a comparison.

Every statistic is computed by the walker (``walk_one`` under a
``PathPlan``), which consumes the stepper's chunks without storing the
path, so ensembles never materialize whole trajectories.  Every state it
records -- snapshots, threshold crossings, first detections, the clock
step and the final state -- is a ``WalkState``.  A walk ends at its
first armed stop event but never before its last snapshot; a plan with
no stop rule ends with the chunk that holds its last snapshot; otherwise
the walk runs to the horizon.  ``simulate_path`` joins the same
stepper's chunks into a whole trajectory for the path dumps of the
command line, so a dump is the path the walker walks on the same stream.
Every path owns a private stream derived from ``(master seed, tag, path
index)``, which makes results reproducible regardless of execution order
or sharding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import LevyModel

__all__ = [
    "SimGrid",
    "MCConfig",
    "simulate_path",
    "PathPlan",
    "WalkState",
    "walk_one",
    "path_stream",
]

_MAX_STEPS = 1_000_000_000
# increments are drawn _CHUNK steps at a time, and the stable and jump-diffusion
# samplers draw several arrays per chunk (uniforms then exponentials; normals,
# Poisson counts then jumps), so for those models the path at a fixed seed
# depends on this value: it is part of the seed contract.  Brownian paths
# agree across chunk sizes up to summation order.
_CHUNK = 8192
NOT_HIT = np.iinfo(np.int64).max
# a same-side Gaussian step draws a uniform only when its bridge crossing
# probability exceeds _BRIDGE_P_MIN, i.e. when d0 d1 < -log(_BRIDGE_P_MIN)/2
# sigma^2 dt = 16.118 sigma^2 dt; the band bound rounds that up, so the band
# holds every step that can draw and the cutoff test inside it decides
_BRIDGE_P_MIN = 1e-14
_BRIDGE_BAND = 16.2


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
        if self.n_steps < 1:
            raise ValueError(f"horizon={self.horizon} spans no step of dt={self.dt}")

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
        if not (math.isfinite(self.z) and self.z > 0):
            raise ValueError(f"z must be finite and positive, got {self.z}")
        if not 0 <= self.censor_budget < 1:
            raise ValueError("censor_budget must lie in [0, 1)")
        if self.n_batches < 2 or self.n_paths % self.n_batches:
            raise ValueError("n_batches must divide n_paths")


# ---------------------------------------------------------------------------
# the stepper: the one place increments are drawn and local time accrues

def _local_times(left: np.ndarray, levels: tuple, grid: SimGrid) -> np.ndarray:
    """Local time gained over one chunk, by the occupation-window rule.

    Each step adds dt/(2 eps) 1{|X - level| < eps} at its left endpoint
    ``left``.  Row j holds the local time at ``levels[j]`` gained from the
    chunk's first grid point to its grid points 0..n; the local time at
    point i is the chunk's entry value plus column i.
    """
    unit = grid.dt / (2.0 * grid.eps)
    gain = np.zeros((len(levels), len(left) + 1))
    for j, lv in enumerate(levels):
        np.cumsum(unit * (np.abs(left - lv) < grid.eps), out=gain[j, 1:])
    return gain


def _chunks(model: LevyModel, x0: float, grid: SimGrid, levels: tuple,
            rng: np.random.Generator):
    """Step a path from x0 to the horizon, ``_CHUNK`` steps at a time.

    Yields ``(g, seg, lt0, gain)`` per chunk: its first global step
    ``g``, the positions ``seg`` at grid points g..g+n, the local times
    ``lt0`` at ``levels`` at point g and the local time ``gain`` since
    then (see ``_local_times``).  A chunk is drawn only when the consumer
    asks for it, so the consumer's own draws from ``rng`` (bridge
    crossings) fall between the increments of two chunks.
    """
    x, lt0 = x0, np.zeros(len(levels))
    g = 0
    while g < grid.n_steps:
        n = min(_CHUNK, grid.n_steps - g)
        seg = np.empty(n + 1)
        seg[0] = x
        np.cumsum(model.sample_increments(rng, grid.dt, n), out=seg[1:])
        seg[1:] += x
        gain = _local_times(seg[:-1], levels, grid)
        yield g, seg, lt0, gain
        x, lt0 = seg[-1], lt0 + gain[:, -1]
        g += n


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
    """One whole path: the chunks the walker steps through, joined."""
    tracked = tuple(sorted(set(float(t) for t in tracked)))
    values, lts = [np.array([x0], dtype=float)], [np.zeros((len(tracked), 1))]
    for _, seg, lt0, gain in _chunks(model, x0, grid, tracked, stream):
        values.append(seg[1:])
        lts.append(lt0[:, None] + gain[:, 1:])
    return Path(grid=grid, values=np.concatenate(values), tracked_levels=tracked,
                local_times=dict(zip(tracked, np.concatenate(lts, axis=1))))


def _detect_hit(values: np.ndarray, level: float, model: LevyModel, grid: SimGrid,
                rng: np.random.Generator):
    """First detection index into the grid-point array, or None.

    One rule per model.  With a Gaussian component, a step crosses the
    level when its endpoints straddle it or, for a same-side step, with
    the Brownian-bridge crossing probability exp(-2 d0 d1 / (sigma^2 dt));
    this makes the first-crossing time exact in distribution, detected at
    the right endpoint of the step.  A same-side step draws a uniform
    only when that probability exceeds ``_BRIDGE_P_MIN`` (1e-14), which
    needs d0 d1 < 16.118 sigma^2 dt.  So the exponential and the cutoff
    test run only on the band d0 d1 < ``_BRIDGE_BAND`` sigma^2 dt (16.2,
    a superset), which also holds every straddle; the same steps draw
    the same uniforms in the same order as a test over the whole chunk.
    Pure-jump models detect entry of a grid point into the window
    |X - level| <= delta, the honest event under overshoot: a step
    straddling the level usually jumped over it.
    """
    d = values - level
    if not model.has_gaussian_part:
        win = np.abs(d[:-1]) <= grid.delta
        return int(np.argmax(win)) if win.any() else None
    prod = d[:-1] * d[1:]
    scale = model.gaussian_sigma**2 * grid.dt
    near = np.flatnonzero(prod < _BRIDGE_BAND * scale)
    if not len(near):
        return None
    prod = prod[near]
    hit = prod <= 0.0                      # straddles
    p = np.exp(-2.0 * prod[~hit] / scale)  # same-side steps in the band
    drawn = p > _BRIDGE_P_MIN
    if drawn.any():
        fire = np.zeros(len(p), bool)
        fire[drawn] = rng.random(int(drawn.sum())) < p[drawn]
        hit[~hit] = fire
    return int(near[np.argmax(hit)]) + 1 if hit.any() else None


# ---------------------------------------------------------------------------
# ensemble walker

@dataclass(frozen=True)
class PathPlan:
    """What a walked path must track, record and stop on.

    The walker records the state at every snapshot step, at each
    local-time threshold crossing, at the first detection of every hit
    level and at the personal clock step ``clock_step`` (e.g. an
    exponential clock drawn per path) when the walk reaches them.

    Stops arm when any of three event kinds fires: detection of a level
    in ``stop_hit_levels``, the crossing of the last local-time
    threshold, or the clock step.  The walk halts at the first armed
    event, but never before the last snapshot step, so snapshots are
    always taken on the live path.  A plan with none of these stop rules
    ends with the chunk that holds its last snapshot step, or at the
    horizon when it takes no snapshot.
    """

    tracked_levels: tuple = ()
    hit_levels: tuple = ()
    stop_hit_levels: tuple = ()
    lt_level: float | None = None          # level whose local time is thresholded
    lt_thresholds: tuple = ()               # ascending; each crossing is recorded
    snapshot_steps: tuple = ()               # sorted global step indices
    clock_step: int | None = None            # personal clock (records and arms)

    def __post_init__(self):
        if self.lt_thresholds and list(self.lt_thresholds) != sorted(self.lt_thresholds):
            raise ValueError("lt_thresholds must be ascending")
        if any(lv not in self.hit_levels for lv in self.stop_hit_levels):
            raise ValueError("stop_hit_levels must be a subset of hit_levels")
        if self.lt_thresholds and (self.lt_level is None
                                   or self.lt_level not in self.tracked_levels):
            raise ValueError("thresholded level must be tracked")


class WalkState(NamedTuple):
    """A walked path at one grid step.

    ``local_times`` is ordered as the plan's tracked levels, ``hit_steps``
    as its hit levels, with NOT_HIT for a level not detected by ``step``.
    """

    step: int
    x: float
    local_times: np.ndarray
    hit_steps: np.ndarray


@dataclass
class PathRecord:
    """Per-path outcome of a walk: the states it recorded and its last one."""

    final: WalkState
    stopped: bool                    # a stop rule fired at or before the horizon
    snapshots: dict                  # step -> state
    crossings: dict                  # threshold -> state
    hit_states: dict                 # level -> state at first detection
    clock_state: WalkState | None    # state at the clock step

    @property
    def final_step(self) -> int:
        return self.final.step


def path_stream(master_seed: int, tag: int, index: int) -> np.random.Generator:
    """Private stream of one path: reproducible under any scheduling."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(tag, index))))


def walk_one(model: LevyModel, x0: float, grid: SimGrid, plan: PathPlan,
             rng: np.random.Generator) -> PathRecord:
    """Walk a single path under a plan, chunk by chunk, never storing it."""
    horizon_step = grid.n_steps
    snap_iter = [s for s in plan.snapshot_steps if s <= horizon_step]
    arm_step = snap_iter[-1] if snap_iter else 0
    clock_step = plan.clock_step
    if clock_step is None or clock_step > horizon_step:
        clock_step = NOT_HIT  # no clock, or it did not ring within the horizon
    has_stop_rule = bool(plan.stop_hit_levels or plan.lt_thresholds
                         or plan.clock_step is not None)
    end_step = arm_step if snap_iter and not has_stop_rule else horizon_step

    hits = plan.hit_levels
    lt_idx = (plan.tracked_levels.index(plan.lt_level)
              if plan.lt_level is not None else -1)

    hit_steps = np.full(len(hits), NOT_HIT, dtype=np.int64)
    snapshots, crossings, hit_states, clock_state = {}, {}, {}, None
    pending_thresholds = list(plan.lt_thresholds)
    earliest_stop = clock_step
    snap_pos = 0

    def state_at(step):
        """State at a grid step of the current chunk."""
        masked = hit_steps.copy()
        masked[masked > step] = NOT_HIT
        return WalkState(step, float(seg[step - g]), lt0 + gain[:, step - g], masked)

    for g, seg, lt0, gain in _chunks(model, x0, grid, plan.tracked_levels, rng):
        n = len(seg) - 1

        # hit detection for levels not yet detected
        new_hits = []
        for k, level in enumerate(hits):
            if hit_steps[k] != NOT_HIT:
                continue
            idx = _detect_hit(seg, level, model, grid, rng)
            if idx is not None:
                hit_steps[k] = g + idx
                new_hits.append(k)
        for k in new_hits:
            hit_states[float(hits[k])] = state_at(int(hit_steps[k]))
            if hits[k] in plan.stop_hit_levels:
                earliest_stop = min(earliest_stop, int(hit_steps[k]))

        # local-time threshold crossings; the last one arms a stop
        while pending_thresholds:
            above = lt0[lt_idx] + gain[lt_idx, 1:] > pending_thresholds[0]
            if not above.any():
                break
            step = g + int(np.argmax(above)) + 1
            crossings[pending_thresholds.pop(0)] = state_at(step)
            if not pending_thresholds:
                earliest_stop = min(earliest_stop, step)

        # personal clock state, recorded when the walk passes its step
        if clock_state is None and g <= clock_step <= g + n:
            clock_state = state_at(clock_step)

        # snapshots due in this chunk, up to the stop step if any
        stop_at = max(earliest_stop, arm_step)
        while snap_pos < len(snap_iter) and snap_iter[snap_pos] <= min(g + n, stop_at):
            s = snap_iter[snap_pos]
            snapshots[s] = state_at(s)
            snap_pos += 1

        if stop_at <= g + n or g + n >= end_step:
            break
    return PathRecord(state_at(min(stop_at, g + n)), stop_at <= g + n,
                      snapshots, crossings, hit_states, clock_state)
