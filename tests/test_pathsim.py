"""Path simulation: local-time accumulation, hit detection, clocks, walker.

The occupation estimator has a computable exact-discrete mean for
Brownian motion started at the level:

    E[L_hat_t] = sum_i dt/(2 eps) P(|X_{t_i}| < eps),
    P(|X_s| < eps) = 2 Phi(eps / sqrt(s)) - 1,

so Monte Carlo assertions can carry an exact bias allowance instead of a
guessed one, and the refinement invariant (bias shrinking with eps) is a
deterministic statement.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from levypen import models, pathsim, verify
from levypen.penalization import MCDegenerateError
from levypen.pathsim import NOT_HIT, PathPlan, SimGrid, path_stream, simulate_path, walk_one

BM = models.brownian(1.0)


class FixedModel:
    """Replays a fixed path; the walker sees it as a model.

    ``gaussian`` selects the hit rule.  The Gaussian part is vanishingly
    small, so the bridge probability never passes its 1e-14 cutoff and
    only sign changes across a step detect a crossing.
    """

    gaussian_sigma = 1e-6

    def __init__(self, values, gaussian=True):
        self.increments = list(np.diff(np.asarray(values, dtype=float)))
        self.has_gaussian_part = gaussian

    def sample_increments(self, rng, dt, n):
        out, self.increments = self.increments[:n], self.increments[n:]
        return np.array(out)


def walk_fixed(values, plan, dt=1.0, eps=1.0, gaussian=True, clock_step=None):
    """Walk the path through ``values`` (grid points 0..n) under a plan: a record of one row."""
    grid = SimGrid(dt=dt, horizon=dt * (len(values) - 1), eps=eps)
    return pathsim.walk_block(FixedModel(values, gaussian), float(values[0]), grid, plan,
                              [np.random.default_rng(0)], lambda rng: clock_step)


# ---------------------------------------------------------------------------
# grids and paths

def test_simgrid_validation():
    g = SimGrid(dt=1e-4, horizon=1.0)
    assert g.eps == pytest.approx(5e-2)
    assert g.delta == pytest.approx(2.5e-2)
    assert g.n_steps == 10_000
    with pytest.raises(ValueError):
        SimGrid(dt=0.1, horizon=1.0, eps=0.01)  # dt > eps^2
    with pytest.raises(ValueError):
        SimGrid(dt=1e-10, horizon=10.0)  # step budget
    with pytest.raises(ValueError):
        SimGrid(dt=-0.1, horizon=1.0)
    with pytest.raises(ValueError, match="spans no step"):
        SimGrid(dt=1e-2, horizon=4e-3)  # a walk would record nothing


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       field=st.sampled_from(["dt", "horizon", "eps"]))
@settings(max_examples=20, deadline=None)
def test_simgrid_rejects_non_finite(bad, field):
    fields = {"dt": 1e-3, "horizon": 1.0, "eps": 0.1}
    fields[field] = bad
    with pytest.raises(ValueError):
        SimGrid(**fields)


@given(z=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
                   st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)))
@settings(max_examples=20, deadline=None)
def test_mcconfig_rejects_bad_z(z):
    # a NaN or non-positive z used to fail every check without saying why
    grid = SimGrid(dt=1e-3, horizon=1.0)
    with pytest.raises(ValueError, match="z must be"):
        pathsim.MCConfig(n_paths=100, master_seed=1, grid=grid, z=z)


def test_mcconfig_needs_whole_batches():
    grid = SimGrid(dt=1e-3, horizon=1.0)
    with pytest.raises(ValueError, match="n_paths must be a multiple of 50"):
        pathsim.MCConfig(n_paths=120, master_seed=1, grid=grid)


def test_simulate_path_initial_condition_and_determinism():
    grid = SimGrid(dt=1e-3, horizon=0.5)
    one = simulate_path(BM, 3.0, grid, (0.0,), path_stream(42, 0, 0))
    assert one.values[0] == 3.0
    assert one.local_times[0.0][0] == 0.0
    two = simulate_path(BM, 3.0, grid, (0.0,), path_stream(42, 0, 0))
    assert np.array_equal(one.values, two.values)
    other = simulate_path(BM, 3.0, grid, (0.0,), path_stream(42, 0, 1))
    assert not np.array_equal(one.values, other.values)


@pytest.mark.parametrize("model", [models.symmetric_stable(1.5),
                                   models.jump_diffusion(1.0, 1.0, 1.0, 2.0)])
def test_simulate_path_is_the_walked_path(model):
    # a dump is the walker's path on the same stream, across chunk borders
    grid = SimGrid(dt=1e-3, horizon=10.0)
    assert grid.n_steps > pathsim._CHUNK
    levels = (0.0, 0.5)
    path = simulate_path(model, 0.0, grid, levels, path_stream(3, 12, 0))
    plan = PathPlan(tracked_levels=levels, snapshot_steps=tuple(range(grid.n_steps + 1)))
    rec = walk_one(model, 0.0, grid, plan, path_stream(3, 12, 0))
    walked = np.array([rec.snapshots[s].x[0] for s in plan.snapshot_steps])
    walked_lt = np.array([rec.snapshots[s].local_times[0] for s in plan.snapshot_steps]).T
    assert np.array_equal(path.values, walked)
    assert np.array_equal(np.array([path.local_times[lv] for lv in levels]), walked_lt)
    assert walked_lt[:, -1].min() > 0


def test_local_time_zero_off_window():
    grid = SimGrid(dt=1e-3, horizon=0.2)
    path = simulate_path(BM, 0.0, grid, (100.0,), path_stream(1, 0, 0))
    assert path.local_times[100.0].max() == 0.0


def test_local_time_left_endpoint_rule():
    # handmade path: occupation counts the left endpoint of each step
    plan = PathPlan(tracked_levels=(0.0,), snapshot_steps=(0, 1, 2, 3))
    rec = walk_fixed([0.0, 0.0, 5.0, 0.0], plan)
    unit = 1.0 / 2.0
    lts = [rec.snapshots[s].local_times[0, 0] for s in (0, 1, 2, 3)]
    assert np.allclose(lts, [0.0, unit, 2 * unit, 2 * unit])


def test_occupation_estimator_brownian_mean():
    dt, n_paths, t = 1e-4, 4000, 1.0
    grid = SimGrid(dt=dt, horizon=t)
    plan = PathPlan(tracked_levels=(0.0,))
    vals = pathsim.walk_ensemble(BM, 0.0, grid, plan, 77, 5, n_paths).final.local_times[:, 0]
    target = math.sqrt(2.0 / math.pi)  # int_0^1 p_s(0) ds for the heat kernel
    steps = np.arange(grid.n_steps) * dt
    with np.errstate(divide="ignore"):
        probs = 2.0 * norm.cdf(grid.eps / np.sqrt(np.maximum(steps, 1e-300))) - 1.0
    exact_discrete = float(np.sum(dt / (2 * grid.eps) * probs))
    stderr = vals.std(ddof=1) / math.sqrt(n_paths)
    bias = abs(exact_discrete - target)
    assert abs(vals.mean() - target) < 3 * stderr + bias
    assert abs(vals.mean() - exact_discrete) < 3 * stderr


def test_occupation_bias_shrinks_under_refinement():
    target = math.sqrt(2.0 / math.pi)
    biases = []
    for dt in (1.6e-3, 4e-4, 1e-4):
        grid = SimGrid(dt=dt, horizon=1.0)
        steps = np.arange(grid.n_steps) * dt
        with np.errstate(divide="ignore"):
            probs = 2.0 * norm.cdf(grid.eps / np.sqrt(np.maximum(steps, 1e-300))) - 1.0
        biases.append(abs(float(np.sum(dt / (2 * grid.eps) * probs)) - target))
    assert biases[0] > biases[1] > biases[2]


# ---------------------------------------------------------------------------
# hit detection

def test_first_hitting_deterministic_straddle():
    rec = walk_fixed([0.0, 0.4, 1.1], PathPlan(hit_levels=(1.0,)))
    assert rec.final.hit_steps[0, 0] == 2


def test_first_hitting_absent():
    rec = walk_fixed([0.0, 0.1, -0.2, 0.3], PathPlan(hit_levels=(5.0,)))
    assert rec.final.hit_steps[0, 0] == NOT_HIT


def test_first_hitting_pure_jump_ignores_straddle():
    # pure-jump models only detect window entry (|X - level| <= eps/2 =
    # 0.05 here): a jump across is not a hit
    plan = PathPlan(hit_levels=(1.0,))
    rec = walk_fixed([0.0, 0.4, 1.1], plan, dt=0.01, eps=0.1, gaussian=False)
    assert rec.final.hit_steps[0, 0] == NOT_HIT
    rec = walk_fixed([0.0, 1.01, 2.0], plan, dt=0.01, eps=0.1, gaussian=False)
    assert rec.final.hit_steps[0, 0] == 1


def _detect_hit_whole_chunk(values, level, model, grid, rng):
    """The detection rule evaluated on every step of the chunk: the reference."""
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


@pytest.mark.parametrize("model", [
    models.brownian(0.7), BM, models.jump_diffusion(1.0, 1.0, 1.0, 2.0),
    models.symmetric_stable(1.5)], ids=("bm-0.7", "bm", "jump-diffusion", "stable"))
def test_band_detection_equals_the_whole_chunk_rule(model):
    # the band rule evaluates bridge probabilities only where
    # d0 d1 < 16.2 sigma^2 dt; it must give the same index and draw the same
    # uniforms, which equal generator states after the call show
    grid = SimGrid(dt=1e-3, horizon=10.0)
    gen = np.random.default_rng(11)
    scale = (model.gaussian_sigma or 1.0)**2 * grid.dt
    drew = 0
    for trial in range(240):
        n = int(gen.integers(2, 3000))
        values = np.cumsum(np.r_[0.0, model.sample_increments(gen, grid.dt, n)])
        kind = trial % 3
        if kind == 0:    # straddled
            level = float(values[gen.integers(len(values))] + 0.01 * gen.normal())
        elif kind == 1:  # the top steps sit at the edge of the cutoff and the band
            level = float(values.max() + math.sqrt(gen.uniform(15.5, 16.5) * scale))
        else:            # far away
            level = float(values.max() + gen.uniform(0.5, 5.0))
        seed = int(gen.integers(2**32))
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _detect_hit_whole_chunk(values, level, model, grid, want_rng)
        assert pathsim._detect_hit(values, level, model, grid, got_rng) == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        drew += got_rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state
    # the bridge rule drew uniforms on some chunks and none on others
    assert (0 < drew < 240) == model.has_gaussian_part


def test_hitting_time_laplace_brownian():
    # E[exp(-q T_1)] = exp(-sqrt(2q)); bridge detection is exact, bias O(dt)
    q, n_paths = 0.5, 3000
    grid = SimGrid(dt=1e-3, horizon=60.0)
    plan = PathPlan(hit_levels=(1.0,), stop_hit_levels=(1.0,))
    rec = pathsim.walk_ensemble(BM, 0.0, grid, plan, 9, 6, n_paths)
    vals = np.where(rec.stopped, np.exp(-q * rec.final.step * grid.dt), 0.0)
    target = math.exp(-math.sqrt(2 * q))
    stderr = vals.std(ddof=1) / math.sqrt(n_paths)
    bias_allow = target * (q * grid.dt) + math.exp(-q * grid.horizon)
    assert abs(vals.mean() - target) < 3 * stderr + bias_allow + 0.01 * target


# ---------------------------------------------------------------------------
# inverse local time and clocks

def test_inverse_local_time_examples():
    # local time grows every step; the infimum over u=0 is the first step
    plan = PathPlan(tracked_levels=(0.0,), lt_level=0.0, lt_thresholds=(0.0, 1e9))
    rec = walk_fixed(np.zeros(6), plan)
    assert rec.crossings[0.0].step[0] == 1
    assert rec.crossings[1e9].step[0] == NOT_HIT
    with pytest.raises(ValueError):
        PathPlan(tracked_levels=(0.0,), lt_level=3.0, lt_thresholds=(0.5,))


def test_inverse_local_time_laplace_brownian():
    # E[exp(-q eta_u)] = exp(-u sqrt(2q)) for sigma = 1
    q, u, n_paths = 1.0, 0.5, 2000
    grid = SimGrid(dt=2.5e-4, horizon=25.0)
    plan = PathPlan(tracked_levels=(0.0,), lt_level=0.0, lt_thresholds=(u,))
    steps = pathsim.walk_ensemble(BM, 0.0, grid, plan, 11, 7, n_paths).crossings[u].step
    vals = np.where(steps != NOT_HIT, np.exp(-q * steps * grid.dt), 0.0)
    target = math.exp(-u * math.sqrt(2 * q))
    stderr = vals.std(ddof=1) / math.sqrt(n_paths)
    assert abs(vals.mean() - target) < 3 * stderr + 0.03 * target


class _StubStream:
    def __init__(self, value):
        self.value = value

    def exponential(self, scale):
        return self.value


def test_realize_clock_exponential():
    (clock,) = verify.ExponentialClockFamily(qs=(2.0,)).clocks()
    assert clock.draw(_StubStream(0.75), 0.25) == 3
    rec = walk_fixed(np.zeros(5), PathPlan(tracked_levels=(0.0,)), clock_step=3)
    assert verify._rung(rec, clock).step[0] == 3
    # a clock beyond the horizon does not ring: the path is censored
    rec = walk_fixed(np.zeros(5), PathPlan(tracked_levels=(0.0,)), clock_step=99)
    assert verify._rung(rec, clock).step[0] == NOT_HIT
    with pytest.raises(ValueError):
        verify.ExponentialClockFamily(qs=(0.0,))


def test_realize_clock_hitting_and_two_point():
    values = [0.0, -0.4, -1.0, 0.5, 0.7]
    levels = (-1.0, -0.75, 0.7, 0.75, 50.0)
    rec = walk_fixed(values, PathPlan(hit_levels=levels))
    # crossing of -1 at step 2, level 0.7 reached at step 4
    def rung(family, rec):
        (clock,) = family.clocks()
        return verify._rung(rec, clock)

    assert rung(verify.HittingClockFamily(cs=(-1.0,)), rec).step[0] == 2
    assert rung(verify.HittingClockFamily(cs=(0.7,)), rec).step[0] == 4
    # r = 1/4, gamma = 0: the two-point clock rings at the first of +-0.75
    two = verify.TwoPointClockFamily(gamma=0.0, rs=(0.25,))
    assert two.clocks()[0].hit_levels == (0.75, -0.75)
    assert rung(two, rec).step[0] == 2
    # the state at the earlier level, whole
    assert _same_state(rung(two, rec), rec.hit_states[-0.75])
    assert rung(verify.HittingClockFamily(cs=(50.0,)), rec).step[0] == NOT_HIT
    plan = PathPlan(tracked_levels=(0.7,), lt_level=0.7, lt_thresholds=(1e9,))
    family = verify.InverseLocalTimeClockFamily(cs=(0.7,), u=1e9)
    assert rung(family, walk_fixed(values, plan)).step[0] == NOT_HIT


def test_clock_ordering_two_point_before_single():
    # the two-point clock never rings after the one-point clock on the
    # same path: the first level's bridge draws come first in both walks
    grid = SimGrid(dt=1e-3, horizon=8.0)
    single = pathsim.walk_ensemble(BM, 0.0, grid, PathPlan(hit_levels=(1.0,)), 21, 8, 25)
    pair = pathsim.walk_ensemble(BM, 0.0, grid, PathPlan(hit_levels=(1.0, -0.8)), 21, 8, 25)
    assert np.array_equal(pair.final.hit_steps[:, 0], single.final.hit_steps[:, 0])
    assert (pair.final.hit_steps.min(axis=1) <= single.final.hit_steps[:, 0]).all()


# ---------------------------------------------------------------------------
# walker bookkeeping

def test_walker_snapshots_and_clock_state():
    grid = SimGrid(dt=0.01, horizon=2.0)
    plan = PathPlan(tracked_levels=(0.0,), snapshot_steps=(50, 150))
    rec = pathsim.walk_block(BM, 0.0, grid, plan, [path_stream(4, 9, 0)],
                             lambda rng: 100)
    assert set(rec.snapshots) == {50, 150}
    assert [rec.snapshots[s].step[0] for s in (50, 150)] == [50, 150]
    assert rec.clock_state.step[0] == 100
    # the clock armed the stop but snapshots kept the walk alive to 150
    assert rec.final_step == 150
    assert rec.stopped[0]


def test_walker_hit_stop_before_snapshot_still_snapshots():
    grid = SimGrid(dt=0.01, horizon=50.0)
    plan = PathPlan(hit_levels=(0.5,), stop_hit_levels=(0.5,),
                    snapshot_steps=(2000,))
    rec = walk_one(BM, 0.0, grid, plan, path_stream(4, 10, 1))
    assert rec.snapshots[2000].step[0] == 2000
    assert rec.final_step >= min(int(rec.final.hit_steps[0, 0]), 2000)


def test_walk_without_stop_rule_ends_with_its_last_snapshot_chunk():
    grid = SimGrid(dt=1e-3, horizon=30.0)
    plan = PathPlan(tracked_levels=(0.0,), hit_levels=(1.0,), snapshot_steps=(500,))
    rec = walk_one(BM, 0.0, grid, plan, path_stream(4, 12, 0))
    assert rec.final_step == pathsim._CHUNK and not rec.stopped[0]
    # the snapshot is the one a walk to the horizon takes
    full_plan = PathPlan(tracked_levels=(0.0,), hit_levels=(1.0,),
                         snapshot_steps=(500, grid.n_steps))
    full = walk_one(BM, 0.0, grid, full_plan, path_stream(4, 12, 0))
    assert full.final_step == grid.n_steps
    assert _same_state(rec.snapshots[500], full.snapshots[500])


def test_walker_plan_validation():
    with pytest.raises(ValueError):
        PathPlan(stop_hit_levels=(1.0,))
    with pytest.raises(ValueError):
        PathPlan(lt_thresholds=(1.0,), lt_level=0.0)
    with pytest.raises(ValueError):
        PathPlan(tracked_levels=(0.0,), lt_level=0.0, lt_thresholds=(2.0, 1.0))


def test_walker_determinism_across_chunk_sizes(monkeypatch):
    # without hit levels no bridge draw interleaves with the increments, so
    # a Brownian walk sees the same stream whatever the chunk size; only
    # the summation order of positions and local times changes
    grid = SimGrid(dt=1e-3, horizon=3.0)
    plan = PathPlan(tracked_levels=(0.0, 0.5))
    whole = walk_one(BM, 0.0, grid, plan, path_stream(5, 11, 3))
    monkeypatch.setattr(pathsim, "_CHUNK", 1000)
    chunked = walk_one(BM, 0.0, grid, plan, path_stream(5, 11, 3))
    assert chunked.final_step == whole.final_step == grid.n_steps
    assert abs(chunked.final.x[0] - whole.final.x[0]) < 1e-12
    assert np.allclose(chunked.final.local_times, whole.final.local_times, rtol=0.0, atol=1e-12)
    assert whole.final.local_times[0, 0] > 0


def test_walker_rerun_is_bit_identical():
    grid = SimGrid(dt=1e-3, horizon=3.0)
    plan = PathPlan(tracked_levels=(0.0,), hit_levels=(1.0,), stop_hit_levels=(1.0,))
    rec_a = walk_one(BM, 0.0, grid, plan, path_stream(5, 11, 3))
    rec_b = walk_one(BM, 0.0, grid, plan, path_stream(5, 11, 3))
    assert _same_record(rec_a, rec_b)


def _same_state(a, b) -> bool:
    """Two states agree bit for bit, row by row; NaN rows too."""
    return all(f.shape == g.shape and f.tobytes() == g.tobytes() for f, g in zip(a, b))


def _same_record(a, b) -> bool:
    return (_same_state(a.final, b.final) and np.array_equal(a.stopped, b.stopped)
            and _same_state(a.clock_state, b.clock_state)
            and all(list(getattr(a, f)) == list(getattr(b, f))
                    and all(_same_state(getattr(a, f)[k], getattr(b, f)[k]) for k in getattr(a, f))
                    for f in ("snapshots", "crossings", "hit_states")))


def _rows(rec, start, stop):
    """Rows start..stop-1 of a record."""
    def cut(state):
        return pathsim.WalkState(*(f[start:stop] for f in state))
    return pathsim.PathRecord(
        cut(rec.final), rec.stopped[start:stop],
        *({k: cut(st) for k, st in getattr(rec, f).items()}
          for f in ("snapshots", "crossings", "hit_states")), cut(rec.clock_state))


@pytest.mark.parametrize("model", [BM, models.symmetric_stable(1.5),
                                   models.jump_diffusion(1.0, 1.0, 1.0, 2.0)],
                         ids=("bm", "stable", "jump-diffusion"))
def test_block_walk_equals_path_by_path(model, monkeypatch):
    # each row of a block draws its clock step and its chunks from its own
    # stream in the order of a walk alone, so every record and every
    # stream's state after the walk are
    # the same for blocks of 1 and 3 rows and for the ensemble's blocks
    monkeypatch.setattr(pathsim, "_CHUNK", 200)
    grid = SimGrid(dt=4e-3, horizon=4.0)             # five chunks
    n = 13
    plans = [
        PathPlan(tracked_levels=(0.0, 1.0), hit_levels=(0.0, 1.0),
                 snapshot_steps=(0, 50, 200, 450)),
        PathPlan(tracked_levels=(0.0,), hit_levels=(1.0, -1.5), stop_hit_levels=(1.0, -1.5),
                 lt_level=0.0, lt_thresholds=(0.05, 0.2)),
        PathPlan(tracked_levels=(0.0, 1.0), hit_levels=(1.0, 2.5), stop_hit_levels=(2.5,),
                 snapshot_steps=(300,)),
    ]
    seen = {"stopped": 0, "censored": 0, "crossing": 0, "hit": 0, "clock": 0, "late": 0}
    for plan in plans:
        for timed in (False, True):
            streams = {}

            def clock(rng):
                return int(rng.integers(0, 1100)) if timed else None

            def draw(rng):
                streams.setdefault("default", []).append(rng)
                return clock(rng)
            want = pathsim.walk_ensemble(model, 0.5, grid, plan, 8, 4, n, draw)
            for rows in (1, 3):
                streams[rows] = [path_stream(8, 4, i) for i in range(n)]
                for start in range(0, n, rows):
                    got = pathsim.walk_block(
                        model, 0.5, grid, plan, streams[rows][start:start + rows], clock)
                    assert _same_record(_rows(want, start, start + rows), got), (plan, rows)
            states = [[rng.bit_generator.state for rng in rngs] for rngs in streams.values()]
            assert states[0] == states[1] == states[2]
            seen["stopped"] += want.stopped.sum()
            seen["censored"] += (~want.stopped).sum()
            for kind, events in (("crossing", want.crossings), ("hit", want.hit_states),
                                 ("clock", {0: want.clock_state})):
                seen[kind] += sum((st.step != NOT_HIT).sum() for st in events.values())
            seen["late"] += (want.final.step > 2 * pathsim._CHUNK).sum()
    # the walks cover every kind of event and run past two chunks
    assert min(seen.values()) > 0, seen


def test_ensemble_streams_equal_path_stream():
    # the ensemble seeds its streams from SeedSequence's hash run on arrays;
    # every seed word and every generator state is that of path_stream
    for master_seed in (0, 1, 5, 2**32 - 1, 2**32, 2**64 + 3, 10**40):
        for tag in (0, 7, 501, 2**33):
            words = pathsim._seed_words(master_seed, tag, 70)
            for i in (0, 1, 2, 69):
                ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(tag, i))
                assert np.array_equal(words[i], ss.generate_state(4, np.uint64))
            streams = []
            rec = pathsim.walk_ensemble(BM, 0.0, SimGrid(dt=0.01, horizon=0.05),
                                        PathPlan(), master_seed, tag, 3,
                                        lambda rng: streams.append(rng))
            assert len(rec.final.step) == 3
            for i, rng in enumerate(streams):
                ref = path_stream(master_seed, tag, i)
                ref.standard_normal(5)
                assert rng.bit_generator.state == ref.bit_generator.state
    # a negative seed fails as SeedSequence fails on it
    with pytest.raises(ValueError, match="nonnegative"):
        pathsim._seed_words(-1, 7, 3)


# ---------------------------------------------------------------------------
# the ensemble's blocks on every CPU

def _shard_setup(monkeypatch):
    """A grid of 20-row blocks and 210 paths: 11 blocks, the last one short."""
    monkeypatch.setattr(pathsim, "_CHUNK", 200)
    monkeypatch.setattr(pathsim, "_BLOCK_ELEMS", 4000)
    return SimGrid(dt=4e-3, horizon=2.0), 210


def _forks(monkeypatch) -> list:
    """A list that grows by one on every ``os.fork`` call from now on."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return calls


def _forks_expected(n_blocks: int) -> list:
    """The fork calls of a walk of n_blocks blocks: one per usable CPU but this one's."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return [1] * (min(len(os.sched_getaffinity(0)), n_blocks) - 1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_SHARD_PLAN = PathPlan(tracked_levels=(0.0, 1.0), hit_levels=(1.0, -1.5),
                       stop_hit_levels=(-1.5,), lt_level=0.0, lt_thresholds=(0.05, 0.2),
                       snapshot_steps=(0, 250))


@pytest.mark.parametrize("timed", [False, True], ids=("no-clock", "clock"))
@pytest.mark.parametrize("model", [BM, models.symmetric_stable(1.5),
                                   models.jump_diffusion(1.0, 1.0, 1.0, 2.0)],
                         ids=("bm", "stable", "jump-diffusion"))
def test_sharded_ensemble_equals_walk_block(model, timed, monkeypatch):
    # forked processes walk contiguous ranges of whole blocks; the record is
    # the one walk_block gives on the paths' streams, bit for bit
    grid, n = _shard_setup(monkeypatch)
    clock = (lambda rng: int(rng.integers(0, 600))) if timed else None
    forks = _forks(monkeypatch)
    got = pathsim.walk_ensemble(model, 0.5, grid, _SHARD_PLAN, 8, 4, n, clock)
    assert forks == _forks_expected(11)
    _no_child_left()
    want = pathsim.walk_block(model, 0.5, grid, _SHARD_PLAN,
                              [path_stream(8, 4, i) for i in range(n)], clock)
    assert _same_record(got, want)
    # the walks stop and run to the horizon, and record every kind of event
    assert got.stopped.any() and not got.stopped.all()
    for events in (got.crossings, got.hit_states, {0: got.clock_state} if timed else {}):
        assert all((st.step != NOT_HIT).any() for st in events.values())


def test_one_cpu_walks_in_process(monkeypatch):
    grid, n = _shard_setup(monkeypatch)
    sharded = pathsim.walk_ensemble(BM, 0.5, grid, _SHARD_PLAN, 8, 4, n)

    def no_fork():
        raise AssertionError("a walk on one CPU forked")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert _same_record(pathsim.walk_ensemble(BM, 0.5, grid, _SHARD_PLAN, 8, 4, n), sharded)


class _PairError(Exception):
    """An exception that does not unpickle: its constructor takes two arguments."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class _FailingModel:
    """Brownian motion whose sampler raises on the streams of chosen paths."""

    has_gaussian_part, gaussian_sigma = True, 1.0

    def __init__(self, n, failing, exc):
        words = pathsim._seed_words(8, 4, n)
        self.failing = {words[i].tobytes() for i in failing}
        self.exc = exc

    def sample_increments(self, rng, dt, n):
        if rng.bit_generator.seed_seq.words.tobytes() in self.failing:
            raise self.exc
        return BM.sample_increments(rng, dt, n)


@pytest.mark.parametrize("failing, exc, raised, message", [
    ((209,), MCDegenerateError("path 209 failed"), MCDegenerateError, "^path 209 failed$"),
    ((150, 209), ValueError("paths past 150 failed"), ValueError, "^paths past 150 failed$"),
    ((209,), _PairError("a failure", "path 209"), RuntimeError,
     "^_PairError: a failure at path 209$"),
    ((0,), ValueError("path 0 failed"), ValueError, "^path 0 failed$"),
], ids=("child-degenerate", "child-value", "child-unpicklable", "parent"))
def test_sharded_walk_raises_what_a_range_raises(failing, exc, raised, message, monkeypatch):
    # a forked range's exception reaches the caller with its type and
    # message (one that does not unpickle, as a RuntimeError naming it);
    # a raise in the caller's own range kills the children; either way
    # every child is reaped before the call returns
    grid, n = _shard_setup(monkeypatch)
    forks = _forks(monkeypatch)
    with pytest.raises(raised, match=message):
        pathsim.walk_ensemble(_FailingModel(n, failing, exc), 0.5, grid,
                              PathPlan(tracked_levels=(0.0,)), 8, 4, n)
    assert forks == _forks_expected(11)
    _no_child_left()
