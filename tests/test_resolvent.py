"""Resolvent inversion and the renormalized zero resolvent.

Brownian closed forms anchor most assertions:

    r_q(x) = exp(-sqrt(2q)|x|) / sqrt(2q)        (sigma = 1)
    h(x)   = |x|

The stable model is checked through self-similarity (h scales like
|x|^(alpha-1)) and an independent arbitrary-precision quadrature oracle.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypen import models, resolvent

BM = models.brownian(1.0)
ST = models.symmetric_stable(1.5)
JD = models.jump_diffusion(1.0, 1.0, 1.0, 2.0)


def r_brownian(q, x):
    s = math.sqrt(2.0 * q)
    return math.exp(-s * abs(x)) / s


def test_brownian_density_closed_form():
    for q in (0.1, 0.5, 1.0):
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
            got = resolvent.resolvent_density(BM, q, x)
            assert got == pytest.approx(r_brownian(q, x), rel=1e-9)


def test_brownian_density_examples():
    assert resolvent.resolvent_density(BM, 0.5, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-10)
    assert resolvent.resolvent_density(BM, 0.5, 0.0) == pytest.approx(1.0, rel=1e-10)


@given(x=st.sampled_from([math.nan, math.inf, -math.inf]),
       model=st.sampled_from([BM, ST, JD]),
       fn=st.sampled_from([resolvent.resolvent_density, resolvent.resolvent_gap,
                           lambda m, q, x: resolvent.zero_resolvent(m, x)]))
@settings(max_examples=30, deadline=None)
def test_non_finite_position_rejected(x, model, fn):
    # a NaN position used to crash the interpreter inside QUADPACK
    with pytest.raises(ValueError):
        fn(model, 1.0, x)


def test_stable_density_against_mpmath_oracle():
    # independent oracle: (1/pi) int_0^inf dl / (1 + l^1.5) in 30-digit arithmetic
    with mp.workdps(30):
        oracle = float(mp.quad(lambda l: 1 / (1 + l**mp.mpf(1.5)), [0, mp.inf]) / mp.pi)
    got = resolvent.resolvent_density(ST, 1.0, 0.0)
    assert got == pytest.approx(oracle, rel=1e-9)


def test_density_monotone_in_q_and_hitting_ratio():
    qs = (2.0, 1.0, 0.5, 0.1, 0.02)
    for model in (BM, ST, JD):
        for x in (0.0, 0.7, -1.3):
            vals = [resolvent.resolvent_density(model, q, x) for q in qs]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    for model in (BM, ST, JD):
        for q in (0.5, 1.0):
            r0 = resolvent.resolvent_density(model, q, 0.0)
            for x in (-2.0, -0.5, 0.3, 1.7):
                ratio = resolvent.resolvent_density(model, q, -x) / r0
                assert -1e-12 <= ratio <= 1.0 + 1e-12


def test_gap_examples():
    assert resolvent.resolvent_gap(BM, 0.7, 0.0) == 0.0
    assert resolvent.resolvent_gap(ST, 2.0, 0.0) == 0.0
    want = 1.0 - math.exp(-1.0)
    assert resolvent.resolvent_gap(BM, 0.5, 1.0) == pytest.approx(want, abs=1e-10)
    assert resolvent.resolvent_gap(BM, 0.5, -1.0) == pytest.approx(want, abs=1e-10)


def test_gap_matches_density_difference_at_moderate_q():
    for model in (BM, ST, JD):
        for q, x in ((1.0, 0.8), (0.5, -1.5), (2.0, 2.2)):
            fused = resolvent.resolvent_gap(model, q, x)
            diff = (resolvent.resolvent_density(model, q, 0.0)
                    - resolvent.resolvent_density(model, q, -x))
            assert fused == pytest.approx(diff, abs=5e-9)


def test_gap_monotone_in_q_and_below_limit():
    for model in (BM, ST):
        for x in (0.5, 2.0):
            h = resolvent.zero_resolvent(model, x)
            prev = -1.0
            for q in (2.0, 0.5, 0.1, 0.01, 1e-4):
                cur = resolvent.resolvent_gap(model, q, x)
                assert cur >= prev - 1e-9
                assert cur <= h + 1e-6
                prev = cur


def test_zero_resolvent_brownian_absolute_value():
    assert resolvent.zero_resolvent(BM, 0.0) == 0.0
    for x in (-3.0, -1.0, 0.5, 2.0):
        assert resolvent.zero_resolvent(BM, x) == pytest.approx(abs(x), abs=1e-6)


def test_zero_resolvent_scaling_of_stable():
    h1 = resolvent.zero_resolvent(ST, 1.0)
    h2 = resolvent.zero_resolvent(ST, 2.0)
    assert h2 / h1 == pytest.approx(math.sqrt(2.0), abs=1e-4)


def test_zero_resolvent_symmetric_models_even():
    for model in (BM, ST):
        for x in (0.4, 1.1, 2.5):
            assert (resolvent.zero_resolvent(model, x)
                    == pytest.approx(resolvent.zero_resolvent(model, -x), abs=1e-12))


def test_zero_resolvent_asymmetric_jump_diffusion():
    hp = resolvent.zero_resolvent(JD, 1.0)
    hm = resolvent.zero_resolvent(JD, -1.0)
    assert hp > 0 and hm > 0
    assert abs(hp - hm) > 0.05  # p+ != p- skews the process


def test_zero_resolvent_convergence_error():
    tight = resolvent.ZeroLimitConfig(q_start=1.0, q_ratio=0.5, stop_tol=1e-13, max_steps=3)
    with pytest.raises(resolvent.ConvergenceError):
        resolvent.zero_resolvent(BM, 1.0, ext=tight)


def test_tilted_zero_resolvent():
    assert resolvent.tilted_zero_resolvent(BM, 1.0, -2.0) == 0.0
    assert resolvent.tilted_zero_resolvent(BM, -1.0, 2.0) == 0.0
    for gamma in (-1.0, 0.0, 1.0):
        got = resolvent.tilted_zero_resolvent(ST, gamma, 1.3)
        assert got == resolvent.zero_resolvent(ST, 1.3)  # infinite m2 kills the tilt
    x = 0.8
    assert resolvent.tilted_zero_resolvent(BM, 0.0, x) == resolvent.zero_resolvent(BM, x)
    with pytest.raises(ValueError):
        resolvent.tilted_zero_resolvent(BM, 1.5, 1.0)


def test_tilted_nonnegative_on_grid():
    for model in (BM, ST, JD):
        for gamma in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for x in np.linspace(-3, 3, 13):
                assert resolvent.tilted_zero_resolvent(model, gamma, float(x)) >= 0.0


def test_fast_evaluator_matches_reference():
    grid = np.array([-2.5, -1.0, -0.3, 0.0, 0.4, 1.0, 3.0])
    for model in (BM, ST, JD):
        fn = resolvent.zero_resolvent_fn(model)
        fast = fn(grid)
        ref = np.array([resolvent.zero_resolvent(model, float(x)) for x in grid])
        assert np.allclose(fast, ref, atol=2e-6, rtol=0)
    out = resolvent.zero_resolvent_fn(BM)(1.25)
    assert np.ndim(out) == 0 and float(out) == 1.25


def test_config_validation():
    with pytest.raises(ValueError):
        resolvent.QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        resolvent.QuadratureConfig(max_panels=2)
    with pytest.raises(ValueError):
        resolvent.ZeroLimitConfig(q_ratio=1.5)
    with pytest.raises(ValueError):
        resolvent.ZeroLimitConfig(q_start=-1.0)
    with pytest.raises(ValueError):
        resolvent.resolvent_density(BM, -0.5, 1.0)
