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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from levypen import models, pathsim, verify
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


def walk_fixed(values, plan, dt=1.0, eps=1.0, gaussian=True):
    """Walk the path through ``values`` (grid points 0..n) under a plan."""
    grid = SimGrid(dt=dt, horizon=dt * (len(values) - 1), eps=eps)
    return walk_one(FixedModel(values, gaussian), float(values[0]), grid, plan,
                    np.random.default_rng(0))


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


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       field=st.sampled_from(["dt", "horizon", "eps"]))
@settings(max_examples=20, deadline=None)
def test_simgrid_rejects_non_finite(bad, field):
    fields = {"dt": 1e-3, "horizon": 1.0, "eps": 0.1}
    fields[field] = bad
    with pytest.raises(ValueError):
        SimGrid(**fields)


def test_simulate_path_initial_condition_and_determinism():
    grid = SimGrid(dt=1e-3, horizon=0.5)
    one = simulate_path(BM, 3.0, grid, (0.0,), path_stream(42, 0, 0))
    assert one.values[0] == 3.0
    assert one.local_times[0.0][0] == 0.0
    two = simulate_path(BM, 3.0, grid, (0.0,), path_stream(42, 0, 0))
    assert np.array_equal(one.values, two.values)
    other = simulate_path(BM, 3.0, grid, (0.0,), path_stream(42, 0, 1))
    assert not np.array_equal(one.values, other.values)


def test_local_time_zero_off_window():
    grid = SimGrid(dt=1e-3, horizon=0.2)
    path = simulate_path(BM, 0.0, grid, (100.0,), path_stream(1, 0, 0))
    assert path.local_times[100.0].max() == 0.0


def test_local_time_left_endpoint_rule():
    # handmade path: occupation counts the left endpoint of each step
    plan = PathPlan(tracked_levels=(0.0,), snapshot_steps=(0, 1, 2, 3))
    rec = walk_fixed([0.0, 0.0, 5.0, 0.0], plan)
    unit = 1.0 / 2.0
    lts = [rec.snapshots[s][1][0] for s in (0, 1, 2, 3)]
    assert np.allclose(lts, [0.0, unit, 2 * unit, 2 * unit])


def test_occupation_estimator_brownian_mean():
    dt, n_paths, t = 1e-4, 4000, 1.0
    grid = SimGrid(dt=dt, horizon=t)
    plan = PathPlan(tracked_levels=(0.0,))
    vals = np.empty(n_paths)
    for i in range(n_paths):
        rec = walk_one(BM, 0.0, grid, plan, path_stream(77, 5, i))
        vals[i] = rec.local_times[0]
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
    assert rec.hit_steps[0] == 2


def test_first_hitting_absent():
    rec = walk_fixed([0.0, 0.1, -0.2, 0.3], PathPlan(hit_levels=(5.0,)))
    assert rec.hit_steps[0] == NOT_HIT


def test_first_hitting_pure_jump_ignores_straddle():
    # pure-jump models only detect window entry (|X - level| <= eps/2 =
    # 0.05 here): a jump across is not a hit
    plan = PathPlan(hit_levels=(1.0,))
    rec = walk_fixed([0.0, 0.4, 1.1], plan, dt=0.01, eps=0.1, gaussian=False)
    assert rec.hit_steps[0] == NOT_HIT
    rec = walk_fixed([0.0, 1.01, 2.0], plan, dt=0.01, eps=0.1, gaussian=False)
    assert rec.hit_steps[0] == 1


def test_hitting_time_laplace_brownian():
    # E[exp(-q T_1)] = exp(-sqrt(2q)); bridge detection is exact, bias O(dt)
    q, n_paths = 0.5, 3000
    grid = SimGrid(dt=1e-3, horizon=60.0)
    plan = PathPlan(hit_levels=(1.0,), stop_hit_levels=(1.0,))
    vals = np.empty(n_paths)
    for i in range(n_paths):
        rec = walk_one(BM, 0.0, grid, plan, path_stream(9, 6, i))
        vals[i] = math.exp(-q * rec.final_step * grid.dt) if rec.stopped else 0.0
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
    assert rec.crossings[0.0][0] == 1
    assert 1e9 not in rec.crossings
    with pytest.raises(ValueError):
        PathPlan(tracked_levels=(0.0,), lt_level=3.0, lt_thresholds=(0.5,))


def test_inverse_local_time_laplace_brownian():
    # E[exp(-q eta_u)] = exp(-u sqrt(2q)) for sigma = 1
    q, u, n_paths = 1.0, 0.5, 2000
    grid = SimGrid(dt=2.5e-4, horizon=25.0)
    plan = PathPlan(tracked_levels=(0.0,), lt_level=0.0, lt_thresholds=(u,), lt_stop=True)
    vals = np.zeros(n_paths)
    for i in range(n_paths):
        rec = walk_one(BM, 0.0, grid, plan, path_stream(11, 7, i))
        got = rec.crossings.get(u)
        if got is not None:
            vals[i] = math.exp(-q * got[0] * grid.dt)
    target = math.exp(-u * math.sqrt(2 * q))
    stderr = vals.std(ddof=1) / math.sqrt(n_paths)
    assert abs(vals.mean() - target) < 3 * stderr + 0.03 * target


class _StubStream:
    def __init__(self, value):
        self.value = value

    def exponential(self, scale):
        return self.value


def test_realize_clock_exponential():
    family = verify.ExponentialClockFamily(qs=(2.0,))
    assert family.draw_step(_StubStream(0.75), 2.0, 0.25) == 3
    rec = walk_fixed(np.zeros(5), PathPlan(tracked_levels=(0.0,), clock_step=3))
    assert family.rung(rec, 2.0)[0] == 3
    # a clock beyond the horizon does not ring: the path is censored
    rec = walk_fixed(np.zeros(5), PathPlan(tracked_levels=(0.0,), clock_step=99))
    assert family.rung(rec, 2.0) is None
    with pytest.raises(ValueError):
        verify.ExponentialClockFamily(qs=(0.0,))


def test_realize_clock_hitting_and_two_point():
    values = [0.0, -0.4, -1.0, 0.5, 0.7]
    levels = (-1.0, -0.75, 0.7, 0.75, 50.0)
    rec = walk_fixed(values, PathPlan(hit_levels=levels, record_hit_levels=levels))
    # crossing of -1 at step 2, level 0.7 reached at step 4
    assert verify.HittingClockFamily(cs=(-1.0,)).rung(rec, -1.0)[0] == 2
    assert verify.HittingClockFamily(cs=(0.7,)).rung(rec, 0.7)[0] == 4
    # r = 1/4, gamma = 0: the two-point clock rings at the first of +-0.75
    two = verify.TwoPointClockFamily(gamma=0.0, rs=(0.25,))
    assert two.hit_levels(0.25) == (0.75, -0.75)
    assert two.rung(rec, 0.25)[0] == 2
    assert verify.HittingClockFamily(cs=(50.0,)).rung(rec, 50.0) is None
    plan = PathPlan(tracked_levels=(0.7,), lt_level=0.7, lt_thresholds=(1e9,))
    family = verify.InverseLocalTimeClockFamily(cs=(0.7,), u=1e9)
    assert family.rung(walk_fixed(values, plan), 0.7) is None


def test_clock_ordering_two_point_before_single():
    # the two-point clock never rings after the one-point clock on the
    # same path: the first level's bridge draws come first in both walks
    grid = SimGrid(dt=1e-3, horizon=8.0)
    for i in range(25):
        single = walk_one(BM, 0.0, grid, PathPlan(hit_levels=(1.0,)),
                          path_stream(21, 8, i))
        pair = walk_one(BM, 0.0, grid, PathPlan(hit_levels=(1.0, -0.8)),
                        path_stream(21, 8, i))
        assert pair.hit_steps[0] == single.hit_steps[0]
        assert pair.hit_steps.min() <= single.hit_steps[0]


# ---------------------------------------------------------------------------
# walker bookkeeping

def test_walker_snapshots_and_clock_state():
    grid = SimGrid(dt=0.01, horizon=2.0)
    plan = PathPlan(tracked_levels=(0.0,), snapshot_steps=(50, 150),
                    clock_step=100)
    rec = walk_one(BM, 0.0, grid, plan, path_stream(4, 9, 0))
    assert set(rec.snapshots) == {50, 150}
    assert rec.clock_state is not None and rec.clock_state[0] == 100
    # the clock armed the stop but snapshots kept the walk alive to 150
    assert rec.final_step == 150
    assert rec.stopped


def test_walker_hit_stop_before_snapshot_still_snapshots():
    grid = SimGrid(dt=0.01, horizon=50.0)
    plan = PathPlan(hit_levels=(0.5,), stop_hit_levels=(0.5,),
                    snapshot_steps=(2000,))
    rec = walk_one(BM, 0.0, grid, plan, path_stream(4, 10, 1))
    assert 2000 in rec.snapshots
    assert rec.final_step >= min(int(rec.hit_steps[0]), 2000)


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
    assert abs(chunked.x_final - whole.x_final) < 1e-12
    assert np.allclose(chunked.local_times, whole.local_times, rtol=0.0, atol=1e-12)
    assert whole.local_times[0] > 0


def test_walker_rerun_is_bit_identical():
    grid = SimGrid(dt=1e-3, horizon=3.0)
    plan = PathPlan(tracked_levels=(0.0,), hit_levels=(1.0,), stop_hit_levels=(1.0,))
    rec_a = walk_one(BM, 0.0, grid, plan, path_stream(5, 11, 3))
    rec_b = walk_one(BM, 0.0, grid, plan, path_stream(5, 11, 3))
    assert rec_a.final_step == rec_b.final_step
    assert rec_a.x_final == rec_b.x_final
    assert np.array_equal(rec_a.local_times, rec_b.local_times)
    assert np.array_equal(rec_a.hit_steps, rec_b.hit_steps)
