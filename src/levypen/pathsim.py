"""Discretized Levy paths with tracked local times and point-hit detection.

One stepper (``_step``) draws every path: it is the only caller of
``model.sample_increments``.  It steps a block of paths ``_CHUNK`` steps
at a time, one row per path and each row from the path's own stream, and
one cumsum along the rows sums the draws into grid points; an accumulate
adds in sequence, so a row holds the bits of a block of one.  Local time
accrues by one rule (``_LocalTimes``), the occupation-window rule
``dL = dt/(2 eps) * 1{|X - level| < eps}`` evaluated at the left endpoint
of every step, the natural discretisation of the occupation-density
definition.  Point hitting follows one rule per model (``_detect_rows``;
``_detect_hit`` is its one-path form): exact-in-distribution crossing
detection (straddle plus Brownian bridge) for models with a Gaussian
component, window entry for pure-jump models.  The bridge rule draws only
where its crossing probability exceeds 1e-14, which needs
d0 d1 < 16.118 sigma^2 dt for endpoint distances d0, d1; it evaluates
probabilities only on the band d0 d1 < 16.2 sigma^2 dt, a superset found
by one comparison over the block.  A level that no row's range of
positions comes near costs neither rule anything.

Every statistic is computed by the block walker (``walk_block`` under a
``PathPlan``; ``walk_one`` is its one-row form), which consumes the
stepper's chunks without storing the paths, so ensembles never
materialize whole trajectories.  It returns one ``PathRecord`` with a
row per path: every state it records -- snapshots, threshold crossings,
first detections, the clock step and the final state -- is a
``WalkState`` of arrays, with ``step`` NOT_HIT in a row that did not
record it, so checks read ensembles without a loop over paths.  A walk
ends at its first armed stop event but never before its last snapshot;
a plan with no stop rule ends with the chunk that holds its last
snapshot; otherwise the walk runs to the horizon.  Paths walk in blocks
of ``_BLOCK_ELEMS`` elements per chunk array; a row draws in the order
of a walk alone (a chunk's increments, then the bridge uniforms of its
undetected hit levels, level by level) and leaves its block with the
chunk in which its walk ends, so a path's row and its stream's final
state do not depend on the rows beside it or on the block's size.
``walk_ensemble`` walks the paths of a seed and tag, row i for path i,
on up to one process per usable CPU: it splits the paths into contiguous
ranges of whole blocks, walks the first itself and forks a child for
each other one, which sends its rows back through a pipe.
``simulate_path`` joins the same stepper's
chunks into a whole trajectory for the path dumps of the command line, so
a dump is the path the walker walks on the same stream.  Every path owns
a private stream derived from ``(master seed, tag, path index)``, which
makes results reproducible regardless of execution order or sharding:
an ensemble's record is the same bits for any number of processes.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import threading
import traceback
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .models import LevyModel

__all__ = [
    "SimGrid",
    "MCConfig",
    "simulate_path",
    "PathPlan",
    "WalkState",
    "walk_block",
    "walk_one",
    "walk_ensemble",
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
# an ensemble walks paths in blocks of about this many elements per chunk array
_BLOCK_ELEMS = 1 << 14
# standard errors are batch means over this many contiguous path-index blocks
N_BATCHES = 50


def _batch_stderr(num: np.ndarray, den: np.ndarray | None = None,
                  rhs: np.ndarray | None = None) -> float:
    """Batch stderr of sum(num)/sum(den) - mean(rhs) over N_BATCHES path blocks.

    The blocks are contiguous in path index.  ``den`` defaults to ones (the
    plain mean of ``num``) and ``rhs`` to none; a batch whose denominator
    sums to zero drops, and fewer than two batches left give inf.
    """
    def batch_sums(values):
        return values.reshape(N_BATCHES, -1).sum(axis=1)

    ns = batch_sums(num)
    ds = batch_sums(np.ones_like(num) if den is None else den)
    ok = ds > 0
    if ok.sum() < 2:
        return math.inf
    diffs = ns[ok] / ds[ok]
    if rhs is not None:
        diffs = diffs - rhs.reshape(N_BATCHES, -1).mean(axis=1)[ok]
    return float(diffs.std(ddof=1) / math.sqrt(ok.sum()))


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

    def __post_init__(self):
        if self.n_paths < 100:
            raise ValueError("n_paths must be at least 100")
        if not (math.isfinite(self.z) and self.z > 0):
            raise ValueError(f"z must be finite and positive, got {self.z}")
        if not 0 <= self.censor_budget < 1:
            raise ValueError("censor_budget must lie in [0, 1)")
        if self.n_paths % N_BATCHES:
            raise ValueError(f"n_paths must be a multiple of {N_BATCHES}")


# ---------------------------------------------------------------------------
# the stepper: the one place increments are drawn and local time accrues

def _near(span, level: float, reach: float) -> bool:
    """Whether some row's positions come within ``reach`` of a level.

    ``span`` holds each row's lowest and highest position.  A row whose
    range lies ``reach`` or more away from the level has every position,
    and every difference to the level, at least that far from it.
    """
    return any(lo - level < reach and level - hi < reach for lo, hi in zip(*span))


@functools.lru_cache(maxsize=8)
def _unit_sums(unit: float, n: int) -> np.ndarray:
    """0, unit, unit + unit, ...: the k-th entry adds unit k times in sequence."""
    sums = np.cumsum(np.r_[0.0, np.full(n, unit)])
    sums.flags.writeable = False
    return sums


class _LocalTimes:
    """Local time one chunk adds to each row, by the occupation-window rule.

    Each step adds dt/(2 eps) 1{|X - level| < eps} at its left endpoint,
    ``seg[i, :-1]`` for row i.  ``gain()[i, j, p]`` is what row i gains at
    ``levels[j]`` from the chunk's first grid point to grid point p, and
    ``end()[i, j]`` what it gains over the whole chunk.  Both are computed
    on first use, ``end`` from the window counts unless the running sums
    exist, as most chunks of a long walk read only ``end``.  The two agree
    bit for bit: the running sum adds 0.0 exactly off the window, so its
    last entry is the window steps' unit added in sequence,
    ``_unit_sums``.  A level no row comes near gains exactly nothing.
    """

    def __init__(self, seg: np.ndarray, span, levels: tuple, grid: SimGrid):
        self.unit = grid.dt / (2.0 * grid.eps)
        self.shape = (len(seg), len(levels), seg.shape[1])
        self.inside = {j: np.abs(seg[:, :-1] - lv) < grid.eps
                       for j, lv in enumerate(levels) if _near(span, lv, grid.eps)}
        self._gain = None

    def gain(self) -> np.ndarray:
        if self._gain is None:
            self._gain = np.zeros(self.shape)
            for j, inside in self.inside.items():
                np.cumsum(self.unit * inside, axis=1, out=self._gain[:, j, 1:])
        return self._gain

    def end(self) -> np.ndarray:
        if self._gain is not None:
            return self._gain[:, :, -1]
        out = np.zeros(self.shape[:2])
        sums = _unit_sums(self.unit, self.shape[2] - 1)
        for j, inside in self.inside.items():
            out[:, j] = sums[[np.count_nonzero(row) for row in inside]]
        return out


def _step(model: LevyModel, x: np.ndarray, grid: SimGrid, levels: tuple, rngs,
          n: int):
    """One chunk of n steps for a block of paths, row i from x[i] on rngs[i].

    Returns the positions ``seg`` (rows, n + 1) at the chunk's grid points,
    each row's lowest and highest position ``span`` and the local time
    the chunk adds (``_LocalTimes``).  Row i holds
    ``model.sample_increments(rngs[i], dt, n)``, summed by one cumsum along
    the rows; an accumulate adds in sequence, so every row is bit for bit
    the chunk of a block of one.
    """
    inc = np.empty((len(rngs), n))
    for row, rng in zip(inc, rngs):
        row[:] = model.sample_increments(rng, grid.dt, n)
    seg = np.empty((len(rngs), n + 1))
    seg[:, 0] = x
    np.cumsum(inc, axis=1, out=seg[:, 1:])
    seg[:, 1:] += x[:, None]
    span = (seg.min(axis=1).tolist(), seg.max(axis=1).tolist())
    return seg, span, _LocalTimes(seg, span, levels, grid)


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
    x, lt0 = np.array([float(x0)]), np.zeros((1, len(tracked)))
    values, lts = [x], [lt0.T]
    for g in range(0, grid.n_steps, _CHUNK):
        seg, _, lts_now = _step(model, x, grid, tracked, [stream],
                                min(_CHUNK, grid.n_steps - g))
        values.append(seg[0, 1:])
        lts.append(lt0[0][:, None] + lts_now.gain()[0, :, 1:])
        x, lt0 = seg[:, -1], lt0 + lts_now.end()
    return Path(grid=grid, values=np.concatenate(values), tracked_levels=tracked,
                local_times=dict(zip(tracked, np.concatenate(lts, axis=1))))


# ---------------------------------------------------------------------------
# hit detection

def _detect_rows(seg: np.ndarray, span, level: float, model: LevyModel, grid: SimGrid,
                 rngs, hit_steps: np.ndarray):
    """Rows of ``seg`` that detect the level, and the first detection index in each.

    One rule per model.  With a Gaussian component, a step crosses the
    level when its endpoints straddle it or, for a same-side step, with
    the Brownian-bridge crossing probability exp(-2 d0 d1 / (sigma^2 dt));
    this makes the first-crossing time exact in distribution, detected at
    the right endpoint of the step.  A same-side step draws a uniform
    only when that probability exceeds ``_BRIDGE_P_MIN`` (1e-14), which
    needs d0 d1 < 16.118 sigma^2 dt.  So the exponential and the cutoff
    test run only on the band d0 d1 < ``_BRIDGE_BAND`` sigma^2 dt (16.2,
    a superset), found by one comparison over the block; the band also
    holds every straddle, and a chunk whose rows all stay farther than
    1.01 sqrt(16.2 sigma^2 dt) from the level has no step in it.  Row i
    draws its uniforms from ``rngs[i]``, the same ones in the same order
    as a test over its whole chunk.  Pure-jump models detect entry of a
    grid point into the window |X - level| <= delta, the honest event
    under overshoot: a step straddling the level usually jumped over it.
    Only rows whose ``hit_steps`` entry is still NOT_HIT are tested; the
    others draw nothing.  ``span`` is as returned by ``_step``.
    """
    if not model.has_gaussian_part:
        if not _near(span, level, 2.0 * grid.delta):
            return [], []
        win = np.abs(seg[:, :-1] - level) <= grid.delta
        rows = np.flatnonzero((hit_steps == NOT_HIT) & win.any(axis=1))
        return rows, np.argmax(win[rows], axis=1)
    scale = model.gaussian_sigma**2 * grid.dt
    if not _near(span, level, 1.01 * math.sqrt(_BRIDGE_BAND * scale)):
        return [], []
    d = seg - level
    prod = d[:, :-1] * d[:, 1:]
    band = prod < _BRIDGE_BAND * scale
    rows, idx = [], []
    for r in np.flatnonzero((hit_steps == NOT_HIT) & band.any(axis=1)):
        near = np.flatnonzero(band[r])
        near_prod = prod[r, near]
        hit = near_prod <= 0.0                      # straddles
        p = np.exp(-2.0 * near_prod[~hit] / scale)  # same-side steps in the band
        drawn = p > _BRIDGE_P_MIN
        if drawn.any():
            fire = np.zeros(len(p), bool)
            fire[drawn] = rngs[r].random(int(drawn.sum())) < p[drawn]
            hit[~hit] = fire
        if hit.any():
            rows.append(r)
            idx.append(near[np.argmax(hit)] + 1)
    return rows, idx


def _detect_hit(values: np.ndarray, level: float, model: LevyModel, grid: SimGrid,
                rng: np.random.Generator):
    """First detection index into one path's grid points, or None (``_detect_rows``)."""
    span = ([values.min()], [values.max()])
    rows, idx = _detect_rows(values[None], span, level, model, grid, [rng],
                             np.array([NOT_HIT]))
    return int(idx[0]) if len(rows) else None


# ---------------------------------------------------------------------------
# ensemble walker

@dataclass(frozen=True)
class PathPlan:
    """What a walked path must track, record and stop on.

    The walker records the state at every snapshot step, at each
    local-time threshold crossing, at the first detection of every hit
    level and at a path's personal clock step (e.g. an exponential clock),
    which the walker's ``draw_clock`` draws per row, when the walk
    reaches them.

    Stops arm when any of three event kinds fires: detection of a level
    in ``stop_hit_levels``, the crossing of the last local-time
    threshold, or the clock step.  The walk halts at the first armed
    event, but never before the last snapshot step, so snapshots are
    always taken on the live path.  A walk with none of these stop rules
    ends with the chunk that holds its last snapshot step, or at the
    horizon when it takes no snapshot.
    """

    tracked_levels: tuple = ()
    hit_levels: tuple = ()
    stop_hit_levels: tuple = ()
    lt_level: float | None = None          # level whose local time is thresholded
    lt_thresholds: tuple = ()               # ascending; each crossing is recorded
    snapshot_steps: tuple = ()               # sorted global step indices

    def __post_init__(self):
        if self.lt_thresholds and list(self.lt_thresholds) != sorted(self.lt_thresholds):
            raise ValueError("lt_thresholds must be ascending")
        if any(lv not in self.hit_levels for lv in self.stop_hit_levels):
            raise ValueError("stop_hit_levels must be a subset of hit_levels")
        if self.lt_thresholds and (self.lt_level is None
                                   or self.lt_level not in self.tracked_levels):
            raise ValueError("thresholded level must be tracked")


class WalkState(NamedTuple):
    """Walked paths at one grid step each, one row per path.

    ``local_times`` (rows, tracked levels) is ordered as the plan's
    tracked levels, ``hit_steps`` (rows, hit levels) as its hit levels,
    with NOT_HIT for a level not detected by the row's ``step``.  A row
    that did not record the state has ``step`` NOT_HIT, NaN position and
    local times and no detection.
    """

    step: np.ndarray
    x: np.ndarray
    local_times: np.ndarray
    hit_steps: np.ndarray


class PathRecord(NamedTuple):
    """Outcome of a walk, one row per path: the states it recorded and its last one."""

    final: WalkState
    stopped: np.ndarray              # a stop rule fired at or before the horizon
    snapshots: dict                  # step -> states
    crossings: dict                  # threshold -> states at its crossing
    hit_states: dict                 # level -> states at first detection
    clock_state: WalkState           # states at the clock step

    @property
    def final_step(self) -> int:
        """Steps walked, summed over rows."""
        return int(self.final.step.sum())


def path_stream(master_seed: int, tag: int, index: int) -> np.random.Generator:
    """Private stream of one path: reproducible under any scheduling."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(tag, index))))


# numpy.random.SeedSequence's hash constants (pool of four 32-bit words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list:
    """32-bit words of a nonnegative int, least significant first, as SeedSequence reads it."""
    if n < 0:
        raise ValueError(f"seeds and tags must be nonnegative, got {n}")
    out = [n & _M32]
    while n > _M32:
        n >>= 32
        out.append(n & _M32)
    return out


def _seed_words(master_seed: int, tag: int, n_paths: int) -> np.ndarray:
    """PCG64 seed words of ``path_stream(master_seed, tag, i)``, i < n_paths.

    Row i is ``SeedSequence(master_seed, spawn_key=(tag, i))
    .generate_state(4, np.uint64)``: numpy's hash, step for step, run on
    arrays across the paths, where building the seed sequences one by one
    costs most of a short walk.  ``test_ensemble_streams_equal_path_stream``
    pins the two against each other.
    """
    if n_paths > _M32 + 1:
        raise ValueError("path indices must fit one 32-bit word")
    run = _words(master_seed)
    # a spawned sequence pads its run entropy to the pool size
    entropy = [np.full(n_paths, w, np.uint64)
               for w in [*run, *[0] * (4 - len(run)), *_words(tag)]]
    entropy.append(np.arange(n_paths, dtype=np.uint64))
    m32, shift = np.uint64(_M32), np.uint64(16)
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint64(hash_a)
        hash_a = hash_a * _MULT_A & _M32
        value = value * np.uint64(hash_a) & m32
        return value ^ (value >> shift)

    def mix(x, y):
        out = (np.uint64(_MIX_L) * x - np.uint64(_MIX_R) * y) & m32
        return out ^ (out >> shift)

    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    hash_b, state = _INIT_B, []
    for k in range(8):
        value = pool[k % 4] ^ np.uint64(hash_b)
        hash_b = hash_b * _MULT_B & _M32
        value = value * np.uint64(hash_b) & m32
        state.append(value ^ (value >> shift))
    return np.stack([state[2 * j] | (state[2 * j + 1] << np.uint64(32)) for j in range(4)],
                    axis=1)


class _SeedWords(ISeedSequence):
    """A seed sequence given by the state words it generates for PCG64."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError("these words seed PCG64 only")
        return self.words


@dataclass(slots=True)
class _Walk:
    """Bookkeeping of one path while its block walks."""

    rng: np.random.Generator
    clock_step: int                  # NOT_HIT when no clock rings within the horizon
    end_step: int                    # the walk ends with the chunk holding this step
    stop_step: int                   # earliest armed stop event
    crossed: int = 0                 # local-time thresholds crossed so far


def walk_block(model: LevyModel, x0: float, grid: SimGrid, plan: PathPlan, streams,
               draw_clock=None) -> PathRecord:
    """Walk one path per stream under a plan, side by side, never storing them.

    Paths are walked in blocks of ``_BLOCK_ELEMS`` // (chunk length) rows,
    which bounds a block's arrays whatever the grid.  Row i is the path
    of ``streams[i]`` and draws only from it, in the order of a walk
    alone: ``draw_clock(rng)``, when given, draws its personal clock step
    (None for none) when its block starts, then each chunk its increments
    and the bridge uniforms of its undetected hit levels, level by level.
    So a row's record does not depend on the other rows or on the block's
    size.  Rows leave their block with the chunk in which their walk
    ends.  Events (hits, threshold crossings, the clock) are resolved row
    by row only in the chunk where they land, and a chunk writes every
    state it records in one call per field of the record.
    """
    return _walk(model, x0, grid, plan, len(streams), lambda lo, hi: streams[lo:hi],
                 draw_clock)


def _block_rows(grid: SimGrid) -> int:
    """Rows of a block: its chunk arrays hold about ``_BLOCK_ELEMS`` elements."""
    return max(1, _BLOCK_ELEMS // min(_CHUNK, grid.n_steps))


def _walk(model, x0, grid, plan, n, block_streams, draw_clock) -> PathRecord:
    """``walk_block`` on n paths, rows lo..hi-1's streams built by ``block_streams(lo, hi)``."""
    horizon_step = grid.n_steps
    snaps = [s for s in plan.snapshot_steps if s <= horizon_step]
    arm_step = snaps[-1] if snaps else 0
    hits, thresholds = plan.hit_levels, plan.lt_thresholds
    # the states of every path at each event: row 0 of a field holds the
    # final states, row 1 the clock, then the snapshots, the crossings and
    # the hit levels in turn
    cross_at = 2 + len(snaps)
    hit_at = cross_at + len(thresholds)
    n_events = hit_at + len(hits)
    table = WalkState(np.full((n_events, n), NOT_HIT), np.full((n_events, n), np.nan),
                      np.full((n_events, n, len(plan.tracked_levels)), np.nan),
                      np.full((n_events, n, len(hits)), NOT_HIT))
    stopped = np.zeros(n, bool)
    stop_ks = [k for k, lv in enumerate(hits) if lv in plan.stop_hit_levels]
    lt_idx = (plan.tracked_levels.index(plan.lt_level)
              if plan.lt_level is not None else -1)
    block = _block_rows(grid)
    for start in range(0, n, block):
        streams = block_streams(start, min(n, start + block))
        # the paths still walking and their rows in the record; a finished
        # path's row is dropped
        walking, rows_of = [], np.arange(start, start + len(streams))
        for rng in streams:
            clock = None if draw_clock is None else draw_clock(rng)
            stops = bool(plan.stop_hit_levels or thresholds or clock is not None)
            # a clock beyond the horizon does not ring, but it still is a stop rule
            ring = NOT_HIT if clock is None or clock > horizon_step else clock
            # a plan with no stop rule ends with the chunk of its last snapshot
            walking.append(_Walk(rng, ring, arm_step if snaps and not stops else horizon_step,
                                 ring))
        x = np.full(len(walking), float(x0))
        lt0 = np.zeros((len(walking), len(plan.tracked_levels)))
        hit_steps = np.full((len(walking), len(hits)), NOT_HIT, dtype=np.int64)
        for g in range(0, horizon_step, _CHUNK):
            last = g + min(_CHUNK, horizon_step - g)
            first = g + 1 if g else 0    # a chunk's first point ends the previous chunk
            rngs = [w.rng for w in walking]
            seg, span, lts_now = _step(model, x, grid, plan.tracked_levels, rngs, last - g)
            # the states this chunk records: (event row, walking row, global step)
            marks = []

            # hit detection for levels not yet detected
            for k, level in enumerate(hits):
                found, idx = _detect_rows(seg, span, level, model, grid, rngs, hit_steps[:, k])
                for r, i in zip(found, idx):
                    step = g + int(i)
                    hit_steps[r, k] = step
                    marks.append((hit_at + k, r, step))
                    if k in stop_ks:
                        walking[r].stop_step = min(walking[r].stop_step, step)

            # local-time threshold crossings; the last one arms a stop.  Local
            # time never falls, so a path crosses in this chunk iff its end does
            if thresholds:
                lt_end = (lt0[:, lt_idx] + lts_now.end()[:, lt_idx]).tolist()
                for r, w in enumerate(walking):
                    if w.crossed == len(thresholds) or not lt_end[r] > thresholds[w.crossed]:
                        continue
                    line = lt0[r, lt_idx] + lts_now.gain()[r, lt_idx, 1:]
                    while w.crossed < len(thresholds):
                        above = line > thresholds[w.crossed]
                        if not above.any():
                            break
                        step = g + int(np.argmax(above)) + 1
                        marks.append((cross_at + w.crossed, r, step))
                        w.crossed += 1
                        if w.crossed == len(thresholds):
                            w.stop_step = min(w.stop_step, step)

            # snapshots due in this chunk, on every walking row: never past a
            # stop, which waits for the last snapshot
            for j, s in enumerate(snaps):
                if first <= s <= last:
                    marks += [(2 + j, r, s) for r in range(len(walking))]
            ended = []
            for r, w in enumerate(walking):
                # the personal clock, when the walk passes its step
                if first <= w.clock_step <= last:
                    marks.append((1, r, w.clock_step))
                # the final state of a walk that ends in this chunk
                stop_at = max(w.stop_step, arm_step)
                if min(stop_at, w.end_step) <= last:
                    ended.append(r)
                    marks.append((0, r, min(stop_at, last)))
                    stopped[rows_of[r]] = stop_at <= last

            if marks:
                events, rows, steps = (np.array(col) for col in zip(*marks))
                masked = hit_steps[rows]
                masked[masked > steps[:, None]] = NOT_HIT
                at = (events, rows_of[rows])
                table.step[at] = steps
                table.x[at] = seg[rows, steps - g]
                table.local_times[at] = lt0[rows] + lts_now.gain()[rows, :, steps - g]
                table.hit_steps[at] = masked

            # paths whose walk ended leave the block
            keep = [r for r in range(len(walking)) if r not in ended]
            if not keep:
                break
            walking, rows_of = [walking[r] for r in keep], rows_of[keep]
            x, lt0 = seg[keep, -1], lt0[keep] + lts_now.end()[keep]
            hit_steps = hit_steps[keep]

    final, clock, *events = (WalkState(*fields) for fields in zip(*table))
    return PathRecord(final, stopped, dict(zip(snaps, events)),
                      dict(zip(thresholds, events[len(snaps):])),
                      dict(zip(map(float, hits), events[len(snaps) + len(thresholds):])),
                      clock)


def walk_one(model: LevyModel, x0: float, grid: SimGrid, plan: PathPlan,
             rng: np.random.Generator) -> PathRecord:
    """Walk a single path under a plan: a block of one row."""
    return walk_block(model, x0, grid, plan, [rng])


def walk_ensemble(model: LevyModel, x0: float, grid: SimGrid, plan: PathPlan,
                  master_seed: int, tag: int, n_paths: int, draw_clock=None) -> PathRecord:
    """Record of paths 0..n_paths-1 of ``(master_seed, tag)``, row i for path i.

    Path i draws from the stream of ``path_stream(master_seed, tag, i)``,
    seeded from ``_seed_words``.  ``draw_clock(rng)``, when given, draws a
    path's clock step from its stream before its first chunk.  It must be
    a pure function of that stream: a forked process may call it, and its
    side effects there do not reach the caller.

    The paths split into contiguous ranges of whole blocks, one per
    process (``_workers``).  This process walks the first range and a
    forked child walks each other one; as a row draws only from its own
    stream, the record is the same bits for every number of processes.
    A child's exception is raised here with its type and message, and no
    child outlives the call.
    """
    seeds = _seed_words(master_seed, tag, n_paths)

    def walk_range(lo, hi):
        def block_streams(a, b):
            return [np.random.Generator(np.random.PCG64(_SeedWords(words)))
                    for words in seeds[lo + a:lo + b]]
        return _walk(model, x0, grid, plan, hi - lo, block_streams, draw_clock)

    block = _block_rows(grid)
    n_blocks = max(1, -(-n_paths // block))
    workers = _workers(n_blocks)
    cuts = [min(n_paths, block * (n_blocks * k // workers)) for k in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork(functools.partial(walk_range, lo, hi)))
        parts = [walk_range(0, cuts[1])] + [_receive(*child) for child in children]
    except BaseException:
        import signal    # here only: importing levypen does not load it
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return parts[0] if len(parts) == 1 else _join(parts)


def _workers(n_blocks: int) -> int:
    """Processes that walk an ensemble of n_blocks blocks: one per usable CPU and block.

    One, so nothing forks, where ``os.fork`` or ``os.sched_getaffinity``
    is missing or where another thread runs, as a forked child holds only
    the thread that forked it and any lock another thread held stays
    locked there.
    """
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n_blocks)


def _fork(work):
    """Run ``work()`` in a forked child: its pid and the pipe its outcome comes through.

    The child sends ``(True, result, None)`` or ``(False, exception,
    traceback)`` pickled and ends with ``os._exit``, so it never returns
    into the caller, runs no atexit hook and flushes no inherited buffer.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:
        os.close(read)
        try:
            outcome = (True, work(), None)
        except BaseException as exc:
            outcome = (False, exc, traceback.format_exc())
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:    # an exception that does not pickle goes by type and message
                outcome = (False, RuntimeError(f"{type(exc).__name__}: {exc}"), outcome[2])
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, pipe):
    """The result a forked child sends through its pipe, or its exception raised here."""
    data = pipe.read()
    if not data:
        raise RuntimeError(f"walker process {pid} ended without sending its record")
    ok, value, trace = pickle.loads(data)
    if not ok:
        raise value from RuntimeError(f"in walker process {pid}:\n{trace}")
    return value


def _join(parts):
    """One record holding the rows of each record of ``parts`` in turn."""
    first = parts[0]
    if isinstance(first, dict):
        return {key: _join([part[key] for part in parts]) for key in first}
    if isinstance(first, tuple):
        return type(first)(*map(_join, zip(*parts)))
    return np.concatenate(parts)
