"""Closed-form penalization functionals.

The Brownian zero resolvent |x| turns every formula here into exact
arithmetic, which pins the expected values without quadrature noise;
the stable model exercises the infinite-second-moment branches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypen import models
from levypen import penalization as pen
from levypen.pathsim import NOT_HIT, MCConfig, PathPlan, SimGrid, WalkState
from levypen.resolvent import zero_resolvent

BM = models.brownian(1.0)
ST = models.symmetric_stable(1.5)
JD = models.jump_diffusion(1.0, 1.0, 1.0, 2.0)
INF = math.inf


def params(a=0.0, b=1.0, la=1.0, lb=1.0, gamma=0.0):
    return pen.PenalizationParams(a=a, b=b, lambda_a=la, lambda_b=lb, gamma=gamma)


# ---------------------------------------------------------------------------
# parameter validation

def test_params_regimes():
    assert params(la=1.0, lb=1.0).regime == pen.FINITE
    assert params(la=1.0, lb=INF).regime == pen.SINGLE
    assert params(la=INF, lb=INF).regime == pen.AVOID


def test_params_rejePcts_invalid():
    with pytest.raises(ValueError):
        params(a=1.0, b=1.0)
    for la, lb in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (INF, 1.0)):
        with pytest.raises(ValueError):
            params(la=la, lb=lb)
    with pytest.raises(ValueError):
        params(gamma=1.5)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(bad=NON_FINITE, field=st.sampled_from(["a", "b", "gamma", "la", "lb"]))
@settings(max_examples=30, deadline=None)
def test_params_reject_non_finite(bad, field):
    # a rate may be +inf (avoid the point), never NaN
    if bad == INF and field == "lb":
        assert params(lb=bad).regime == pen.SINGLE
    else:
        with pytest.raises(ValueError):
            params(**{field: bad})


# ---------------------------------------------------------------------------
# expected local times and exit probabilities

def test_local_time_until_hit():
    assert pen.local_time_until_hit(BM, 1.5) == 3.0
    assert pen.local_time_until_hit(BM, 0.0) == 0.0
    hp, hm = zero_resolvent(JD, 0.8), zero_resolvent(JD, -0.8)
    assert abs(hp - hm) > 1e-3
    assert pen.local_time_until_hit(JD, 0.8) == pytest.approx(hp + hm, abs=2e-6)


def test_local_time_until_either_hit_brownian():
    assert pen.local_time_until_either_hit(BM, 1.0, -2.0) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert pen.local_time_until_either_hit(BM, 1.0, -1.0) == pytest.approx(1.0, abs=1e-12)
    # interval Green-function oracle 2 a d / (a + d) for a > 0 > -d
    for a, d in ((0.5, 0.5), (1.0, 3.0), (2.0, 0.25)):
        want = 2.0 * a * d / (a + d)
        assert pen.local_time_until_either_hit(BM, a, -d) == pytest.approx(want, abs=1e-12)


def test_local_time_until_either_hit_symmetric_bitwise():
    for model in (BM, ST, JD):
        for a, b in ((1.0, -2.0), (0.7, 2.2), (-1.3, -0.4)):
            assert (pen.local_time_until_either_hit(model, a, b)
                    == pen.local_time_until_either_hit(model, b, a))
    with pytest.raises(ValueError):
        pen.local_time_until_either_hit(BM, 1.0, 1.0)


def test_local_time_until_either_hit_nonnegative():
    for model in (BM, ST):
        for a in np.linspace(-3, 3, 7):
            for b in np.linspace(-3, 3, 7):
                if abs(a - b) < 1e-9:
                    continue
                assert pen.local_time_until_either_hit(model, float(a), float(b)) >= 0.0


def test_gamblers_ruin():
    for x in (0.25, 0.5, 0.75):
        assert pen.prob_hit_before(BM, x, 0.0, 1.0) == pytest.approx(1.0 - x, abs=1e-12)
    assert pen.prob_hit_before(BM, 2.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert pen.prob_hit_before(BM, 0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_exit_probability_complement():
    grid = np.linspace(-3.0, 3.0, 20)
    for model in (BM, ST, JD):
        for x in grid:
            if x in (0.0, 1.0):
                continue
            total = (pen.prob_hit_before(model, float(x), 0.0, 1.0)
                     + pen.prob_hit_before(model, float(x), 1.0, 0.0))
            assert total == pytest.approx(1.0, abs=1e-8)


def test_prob_hit_before_vectorized():
    xs = np.array([0.25, 0.5, 0.75])
    got = pen.prob_hit_before(BM, xs, 0.0, 1.0)
    assert np.allclose(got, 1.0 - xs, atol=1e-12)


# ---------------------------------------------------------------------------
# martingale factor

def test_factor_avoid_regime_examples():
    p = params(la=INF, lb=INF)
    assert pen.martingale_factor(BM, p, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert pen.martingale_factor(BM, p, -1.0) == pytest.approx(1.0, abs=1e-12)
    assert pen.martingale_factor(BM, p, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_factor_single_regime_example():
    p = params(la=1.0, lb=INF)
    assert pen.martingale_factor(BM, p, -1.0) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_factor_rejects_unweighted():
    # the unit weight (0, 0) has no position factor: no penalization holds it
    with pytest.raises(ValueError, match=r"rate pair \(0.0, 0.0\) is none of"):
        params(la=0.0, lb=0.0)


def test_factor_nonnegative_grids():
    grid = np.linspace(-4.0, 4.0, 33)
    for model in (BM, ST):
        for la, lb in ((1.0, 1.0), (2.0, 0.5), (1.0, INF), (INF, INF)):
            for gamma in (-1.0, 0.0, 1.0):
                p = params(la=la, lb=lb, gamma=gamma)
                vals = pen.martingale_factor(model, p, grid)
                assert (np.asarray(vals) >= 0.0).all()


@pytest.mark.parametrize("model", [BM, ST, JD], ids=("bm", "stable", "jump-diffusion"))
def test_factor_array_equals_scalar_calls(model):
    # the limit checks evaluate the reference factor on all paths at once
    # and promise the reports of one call per path, bit for bit
    grid = np.r_[np.linspace(-4.0, 4.0, 41), -0.3, 0.999, 1.0, 1.7, 2.0, 2.5]
    for la, lb in ((1.0, 1.0), (1.0, INF), (INF, INF)):
        for gamma in (-1.0, 0.0, 0.5, 1.0):
            for a, b in ((0.0, 1.0), (1.0, -0.5)):
                p = params(a=a, b=b, la=la, lb=lb, gamma=gamma)
                got = pen.martingale_factor(model, p, grid)
                want = [pen.martingale_factor(model, p, float(x)) for x in grid]
                assert got.tobytes() == np.array(want).tobytes(), (la, lb, gamma, a, b)


@pytest.mark.parametrize("model", [BM, ST, JD], ids=("bm", "stable", "jump-diffusion"))
def test_factor_evaluates_h_four_times(model):
    # h at a - b, b - a, x - a and x - b serves both exit probabilities and
    # the tilt, in every regime
    h = pen.zero_resolvent_cached_fn(model)
    for la, lb in ((1.0, 1.0), (1.0, INF), (INF, INF)):
        calls = []

        def counted(x):
            calls.append(x)
            return h(x)
        got = pen.martingale_factor(model, params(la=la, lb=lb, gamma=0.5),
                                    np.linspace(-2.0, 3.0, 7), h=counted)
        assert len(calls) == 4, (la, lb)
        assert np.array_equal(got, pen.martingale_factor(model, params(la=la, lb=lb, gamma=0.5),
                                                         np.linspace(-2.0, 3.0, 7), h=h))


def test_factor_pair_swap_symmetry():
    rng = np.random.default_rng(3)
    for model in (BM, ST):
        for _ in range(40):
            a, b = rng.normal(size=2) * 2.0
            if abs(a - b) < 1e-3:
                continue
            la, lb = rng.exponential(2.0, size=2) + 0.05
            gamma = rng.uniform(-1, 1)
            x = float(rng.normal() * 3)
            one = pen.martingale_factor(
                model, pen.PenalizationParams(a, b, la, lb, gamma), x)
            two = pen.martingale_factor(
                model, pen.PenalizationParams(b, a, lb, la, gamma), x)
            assert one == pytest.approx(two, rel=1e-10, abs=1e-12)


def test_factor_point_swap_at_equal_rates():
    grid = np.linspace(-3.0, 3.0, 11)
    for la in (0.7, 2.0):
        p_ab = params(a=0.0, b=1.0, la=la, lb=la)
        p_ba = params(a=1.0, b=0.0, la=la, lb=la)
        one = pen.martingale_factor(BM, p_ab, grid)
        two = pen.martingale_factor(BM, p_ba, grid)
        assert np.allclose(one, two, rtol=1e-10, atol=1e-12)


def test_factor_regime_continuity():
    grid = np.linspace(-3.0, 3.0, 20)
    big = 1e6
    for model in (BM, ST):
        lim_single = pen.martingale_factor(model, params(la=1.0, lb=INF), grid)
        near = pen.martingale_factor(model, params(la=1.0, lb=big), grid)
        mask = np.asarray(lim_single) > 1e-9
        rel = np.abs(near - lim_single)[mask] / np.asarray(lim_single)[mask]
        assert rel.max() < 1e-4
        lim_avoid = pen.martingale_factor(model, params(la=INF, lb=INF), grid)
        near = pen.martingale_factor(model, params(la=big, lb=big), grid)
        mask = np.asarray(lim_avoid) > 1e-9
        rel = np.abs(near - lim_avoid)[mask] / np.asarray(lim_avoid)[mask]
        assert rel.max() < 1e-4


def test_factor_tilt_collapse_for_infinite_second_moment():
    grid = np.linspace(-3.0, 3.0, 20)
    base = pen.martingale_factor(ST, params(la=1.0, lb=2.0, gamma=0.0), grid)
    for gamma in (-1.0, 1.0):
        other = pen.martingale_factor(ST, params(la=1.0, lb=2.0, gamma=gamma), grid)
        assert np.max(np.abs(np.asarray(other) - np.asarray(base))) < 1e-10


# ---------------------------------------------------------------------------
# weights and martingale values

# weights are read off walked paths: local times ordered as the plan's
# tracked levels, detection steps as its hit levels
PLAN = PathPlan(tracked_levels=(0.0, 1.0, 2.0), hit_levels=(0.0, 1.0))


def state(l_a, l_b, l_c, hit_a=NOT_HIT, hit_b=NOT_HIT, step=10):
    """A walked state of one row."""
    return WalkState(np.array([step]), np.array([0.0]), np.array([[l_a, l_b, l_c]]),
                     np.array([[hit_a, hit_b]]))


def weight(p, l_a, l_b, hit_a=NOT_HIT, hit_b=NOT_HIT, step=10, l_c=0.0):
    return pen.path_weight(p, PLAN, state(l_a, l_b, l_c, hit_a, hit_b, step))[0]


def test_weight_value_regimes():
    p = params(la=1.0, lb=2.0)
    assert weight(p, 0.5, 0.25) == pytest.approx(math.exp(-0.5 - 0.5))
    p = params(la=1.0, lb=INF)
    assert weight(p, 0.3, 0.0) == pytest.approx(math.exp(-0.3))
    assert weight(p, 0.3, 0.0, hit_b=10) == 0.0
    assert weight(p, 0.3, 0.0, hit_b=11) == pytest.approx(math.exp(-0.3))
    p = params(la=INF, lb=INF)
    assert weight(p, 0.4, 0.4) == 1.0       # infinite rates read detections only
    assert weight(p, 0.0, 0.0, hit_a=3) == 0.0


def test_martingale_value_examples():
    p = params(la=1.0, lb=INF)
    phi = pen.martingale_factor(BM, p, -1.0)
    assert phi * weight(p, 0.0, 0.0) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert phi * weight(p, 0.7, 0.0) == pytest.approx(4.0 / 3.0 * math.exp(-0.7), abs=1e-12)
    p = params(la=INF, lb=INF)
    assert pen.martingale_factor(BM, p, -1.0) * weight(p, 0.0, 0.0, hit_b=4) == 0.0


def test_inverse_clock_martingale_value():
    def value(rate, p, l_a, l_b, l_c):
        return pen.inverse_clock_value(p, PLAN, 2.0, rate, state(l_a, l_b, l_c))[0]

    assert value(0.5, params(la=1.0, lb=1.0), 1.0, 0.5, 2.0) == pytest.approx(
        math.exp(-0.5), rel=1e-12)
    for rate in (0.3, 1.1):
        assert value(rate, params(la=INF, lb=INF), 0.0, 0.0, 2.0) == pytest.approx(
            math.exp(2.0 * rate), rel=1e-12)


@given(la=st.floats(0.01, 5), lb=st.floats(0.01, 5),
       l_a=st.floats(0, 3), l_b=st.floats(0, 3))
@settings(max_examples=60, deadline=None)
def test_weight_value_matches_exponential(la, lb, l_a, l_b):
    p = params(la=la, lb=lb)
    assert weight(p, l_a, l_b) == pytest.approx(math.exp(-la * l_a - lb * l_b), rel=1e-12)


def test_weight_rows_are_the_scalar_formula_bit_for_bit():
    # a state holds one row per path; each row's weight is the scalar
    # math.exp product, the bits the reports are pinned to
    rng = np.random.default_rng(3)
    lts = rng.uniform(0.0, 3.0, size=(40, 3))
    hits = np.where(rng.random((40, 2)) < 0.3, 5, NOT_HIT)
    rows = WalkState(np.full(40, 10), np.zeros(40), lts, hits)
    for p in (params(la=0.7, lb=1.3), params(la=0.7, lb=INF), params(la=INF, lb=INF)):
        want = [0.0 if any(h <= 10 for h, (_, lam) in zip(hs, p.rates) if lam == INF)
                else math.prod(math.exp(-lam * lt) for lt, (_, lam) in zip(ls, p.rates)
                               if lam < INF)
                for ls, hs in zip(lts.tolist(), hits.tolist())]
        assert pen.path_weight(p, PLAN, rows).tolist() == want
    got = pen.inverse_clock_value(params(la=0.7, lb=1.3), PLAN, 2.0, 0.4, rows)
    weights = pen.path_weight(params(la=0.7, lb=1.3), PLAN, rows)
    assert got.tolist() == [math.exp(lc * 0.4) * w for lc, w in zip(lts[:, 2].tolist(),
                                                                     weights.tolist())]


# ---------------------------------------------------------------------------
# decay-rate estimator

def _mc(n=200, seed=17, dt=2e-3, horizon=20.0):
    return MCConfig(n_paths=n, master_seed=seed, grid=SimGrid(dt=dt, horizon=horizon),
                    censor_budget=0.5)


@given(u0=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
                   st.floats(max_value=0.0, allow_nan=False)))
@settings(max_examples=20, deadline=None)
def test_decay_rate_rejects_bad_u0(u0):
    # u0 = 0 used to write NaN and Infinity into the report, u0 < 0 failed
    # with an unrelated threshold-order message
    with pytest.raises(ValueError, match="u0 must be"):
        pen.estimate_decay_rate(BM, params(1.0, 2.0), 0.0, _mc(), u0=u0)


def test_decay_rate_monotone_in_rate():
    low = pen.estimate_decay_rate(BM, params(1.0, 2.0, la=1.0), 0.0,
                                  _mc(n=1500, seed=23, dt=1e-3, horizon=60.0))
    high = pen.estimate_decay_rate(BM, params(1.0, 2.0, la=2.0), 0.0,
                                   _mc(n=1500, seed=24, dt=1e-3, horizon=60.0))
    spread = 3.0 * math.hypot(low.stderr, high.stderr)
    assert high.estimate >= low.estimate - spread
    assert low.estimate > 0


def test_decay_rate_finite_rate_reads_its_own_local_time():
    # a point out of reach keeps zero local time and is never detected, so
    # a finite and an infinite rate there weigh every path alike
    mc = _mc(n=200, dt=2e-3, horizon=20.0)
    finite = pen.estimate_decay_rate(BM, params(50.0, 1.0, lb=INF), 0.0, mc)
    avoid = pen.estimate_decay_rate(BM, params(50.0, 1.0, la=INF, lb=INF), 0.0, mc)
    assert finite.log_means == avoid.log_means


def test_decay_rate_requires_distinct_levels():
    with pytest.raises(ValueError):
        pen.estimate_decay_rate(BM, params(1.0, 1.0), 0.0, _mc())


def test_decay_rate_degenerate_avoidance():
    # avoiding two points hugging the clock level kills every weight
    with pytest.raises(pen.MCDegenerateError):
        pen.estimate_decay_rate(BM, params(0.05, -0.05, la=INF, lb=INF), 0.0,
                                _mc(n=200, dt=1e-4, horizon=5.0), u0=1.0)
