"""Resolvent inversion and the renormalized zero resolvent.

Brownian closed forms anchor most assertions:

    r_q(x) = exp(-sqrt(2q)|x|) / sqrt(2q)        (sigma = 1)
    h(x)   = |x|

The stable model is checked through self-similarity (h scales like
|x|^(alpha-1)) and an independent arbitrary-precision quadrature oracle.
The exact r_q of every model is checked against the Fourier-quadrature
reference, ``resolvent_density_quad``, and the closed-form h against the
q -> 0 quadrature reference, ``zero_resolvent_quad``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("fn", [resolvent.resolvent_density, resolvent.resolvent_density_quad,
                                resolvent.resolvent_gap])
@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_q_rejected(fn, q):
    # an infinite q used to return r_q = 0, which the inverse-local-time
    # clock divides by
    for model in (BM, ST, JD):
        with pytest.raises(ValueError, match="positive and finite"):
            fn(model, q, 1.0)


def test_exact_density_matches_quadrature_reference():
    # every value below 1e-3 of r_q(0) takes the reference through its mpmath
    # escalation: held to its absolute tolerance alone, the float64 sum
    # missed jump_diffusion(1, 1, 1, 2) at q = 10, x = -5 by 5e-8 relative
    grid_q = (0.02, 0.1, 0.5, 1.0, 10.0)
    grid_x = (-5.0, -1.3, -0.2, 0.0, 0.2, 1.3, 5.0)
    for model in (models.brownian(0.7), BM, models.symmetric_stable(1.2), ST,
                  models.symmetric_stable(1.9), models.symmetric_stable(2.0), JD,
                  models.jump_diffusion(0.5, 2.0, 3.0, 0.5),
                  models.jump_diffusion(0.8, 0.0, 1.0, 2.0)):
        for q in grid_q:
            for x in grid_x:
                exact = resolvent.resolvent_density(model, q, x)
                ref = resolvent.resolvent_density_quad(model, q, x)
                assert abs(exact - ref) <= 1e-9 * exact, (model, q, x, exact, ref)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_stable_density_against_fourier_oracle(alpha):
    # independent oracle: the original oscillatory Fourier integral
    # (1/pi) int_0^inf cos(lam x) / (q + lam^alpha) dlam in 30 digits, not
    # the rotated contour the exact density integrates.  The head up to a
    # multiple of the half period past 8 q^(1/alpha) is split at the
    # kernel's scale; quadosc alone, on [0, inf), misses by 5e-8 at q = 0.1
    model = models.symmetric_stable(alpha)
    for q, x in ((1.0, 1.3), (10.0, 5.0), (0.1, 0.2)):
        with mp.workdps(30):
            a = mp.mpf(alpha)

            def f(lam):
                return mp.cos(lam * x) / (q + lam**a)

            s = mp.mpf(q) ** (1 / a)
            head = mp.pi / x * math.ceil(8 * s * x / mp.pi)
            pts = [0] + [s * 2**k for k in range(-3, 4) if s * 2**k < head] + [head]
            oracle = float((mp.quad(f, pts) + mp.quadosc(f, [head, mp.inf], omega=x)) / mp.pi)
        assert resolvent.resolvent_density(model, q, x) == pytest.approx(oracle, rel=1e-10)
        assert resolvent.resolvent_density(model, q, -x) == pytest.approx(oracle, rel=1e-10)


def test_mpmath_escalation_matches_the_exact_density():
    # r_q(8) of this jump diffusion at q = 10 is 1e-10 of r_q(0): the
    # reference re-evaluates it in mpmath.  mpmath's quadosc run on
    # [0, inf) in one piece missed it by 6e-10 relative, and the
    # stable(1.2) density at q = 0.1, x = 0.2 by 1e-6 at 16 digits
    model = models.jump_diffusion(0.5, 2.0, 3.0, 0.5)
    exact = resolvent.resolvent_density(model, 10.0, 8.0)
    assert resolvent.resolvent_density_quad(model, 10.0, 8.0) == pytest.approx(exact, rel=1e-10)
    model = models.symmetric_stable(1.2)
    exact = resolvent.resolvent_density(model, 0.1, 0.2)
    assert resolvent._density_mp(model, 0.1, 0.2, 16) == pytest.approx(exact, rel=1e-10)


def test_stable_density_far_from_the_rule():
    # below q^(1/alpha)|x| = 1e-10 and above 1e3 the density uses the
    # expansions of the rotated integral; oracle: that integral in 30 digits
    for alpha in (1.05, 1.5, 1.95):
        model = models.symmetric_stable(alpha)
        for x in (1e-14, 1e5):
            with mp.workdps(30):
                a = mp.mpf(alpha)
                c, s = mp.cos(mp.pi * a / 2), mp.sin(mp.pi * a / 2)

                def f(t):
                    return mp.exp(-x * t) * t**a / ((t**a + c) ** 2 + s**2)

                pts = [0, 1 - s, 1, 1 + s, 2] + [10**k for k in range(1, 17)] + [mp.inf]
                oracle = float(s / mp.pi * mp.quad(f, pts))
            assert resolvent.resolvent_density(model, 1.0, x) == pytest.approx(oracle, rel=1e-12)


def test_gaussian_members_use_the_brownian_form():
    st2 = models.symmetric_stable(2.0)
    bm2 = models.brownian(math.sqrt(2.0))
    no_jumps = models.jump_diffusion(0.8, 0.0, 1.0, 2.0)
    bm08 = models.brownian(0.8)
    for q in (0.1, 1.0, 10.0):
        for x in (-2.0, 0.0, 0.7):
            assert (resolvent.resolvent_density(st2, q, x)
                    == resolvent.resolvent_density(bm2, q, x))
            assert (resolvent.resolvent_density(no_jumps, q, x)
                    == resolvent.resolvent_density(bm08, q, x))
            s = math.sqrt(2.0 * q)
            want = math.exp(-s * abs(x) / 0.8) / (0.8 * s)
            assert resolvent.resolvent_density(bm08, q, x) == pytest.approx(want, rel=1e-15)


def test_import_and_exact_forms_load_neither_scipy_nor_mpmath(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[model]\nkind = stable\nalpha = 1.5\n\n[params]\na = 0.0\nb = 1.0\n"
                      "lambda_a = 1.0\nlambda_b = inf\n\n[grid]\ndt = 1e-3\nhorizon = 1.0\n"
                      "\n[mc]\nn_paths = 100\n")
    script = """
import sys
import levypen
from levypen import cli, models, resolvent
for model in (models.brownian(1.0), models.symmetric_stable(1.5),
              models.jump_diffusion(1.0, 1.0, 1.0, 2.0)):
    for x in (-5.0, 0.0, 1.3):
        assert resolvent.resolvent_density(model, 10.0, x) > 0.0
assert cli.main(["table", "--config", sys.argv[1], "--x-grid", "2.0"]) == 0
assert cli.main(["verify", "--suite", "identities", "--config", sys.argv[1],
                 "--out", sys.argv[2]]) in (0, 1)
loaded = sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "mpmath"})
assert not loaded, loaded
"""
    src = Path(resolvent.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path / "out")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "x,h,h_gamma,phi,hitting_prob"


def test_quadrature_references_call_quad_by_module_name(monkeypatch):
    # tracing wraps resolvent.quad by name: the references must look it up there
    calls = []
    real = resolvent.quad

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(resolvent, "quad", counting)
    for cached in (resolvent._r0, resolvent._density, resolvent._zero_resolvent_quad):
        cached.cache_clear()
    resolvent.resolvent_density_quad(ST, 0.7, 1.3)
    n_density = len(calls)
    resolvent.zero_resolvent_quad(ST, 1.3)
    assert n_density >= 2
    assert len(calls) > n_density


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
            h = resolvent.zero_resolvent_quad(model, x)
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
    h1 = resolvent.zero_resolvent_quad(ST, 1.0)
    h2 = resolvent.zero_resolvent_quad(ST, 2.0)
    assert h2 / h1 == pytest.approx(math.sqrt(2.0), abs=1e-4)


def test_zero_resolvent_symmetric_models_even():
    for model in (BM, ST):
        for x in (0.4, 1.1, 2.5):
            assert (resolvent.zero_resolvent_quad(model, x)
                    == pytest.approx(resolvent.zero_resolvent_quad(model, -x), abs=1e-12))


def test_zero_resolvent_asymmetric_jump_diffusion():
    hp = resolvent.zero_resolvent(JD, 1.0)
    hm = resolvent.zero_resolvent(JD, -1.0)
    assert hp > 0 and hm > 0
    assert abs(hp - hm) > 0.05  # p+ != p- skews the process


def test_zero_resolvent_convergence_error(monkeypatch):
    monkeypatch.setattr(resolvent, "_Q_RATIO", 0.5)
    monkeypatch.setattr(resolvent, "_STOP_TOL", 1e-13)
    monkeypatch.setattr(resolvent, "_MAX_STEPS", 3)
    resolvent._zero_resolvent_quad.cache_clear()
    with pytest.raises(resolvent.ConvergenceError, match="within 3 steps"):
        resolvent.zero_resolvent_quad(BM, 1.0)


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
            # arrays follow the scalar values and clamp, point by point
            grid = np.linspace(-3, 3, 13)
            scalars = [resolvent.tilted_zero_resolvent(model, gamma, float(x)) for x in grid]
            assert np.array_equal(resolvent.tilted_zero_resolvent(model, gamma, grid), scalars)


def test_fast_evaluator_matches_reference():
    grid = np.array([-2.5, -1.0, -0.3, 0.0, 0.4, 1.0, 3.0])
    for model in (BM, ST, JD):
        fn = resolvent.zero_resolvent_fn(model)
        fast = fn(grid)
        ref = np.array([resolvent.zero_resolvent_quad(model, float(x)) for x in grid])
        assert np.allclose(fast, ref, atol=2e-6, rtol=0)
    out = resolvent.zero_resolvent_fn(BM)(1.25)
    assert np.ndim(out) == 0 and float(out) == 1.25


def test_exact_h_matches_quadrature_reference():
    # 10 * stop_tol is the program's own cross-check allowance
    tol = 10 * resolvent._STOP_TOL
    grid = np.linspace(-3.0, 3.0, 13)
    for model in (BM, models.symmetric_stable(1.2), ST, JD):
        for x in grid:
            exact = resolvent.zero_resolvent(model, float(x))
            assert abs(exact - resolvent.zero_resolvent_quad(model, float(x))) <= tol


def test_jump_diffusion_h_short_range_is_gaussian():
    # the Gaussian part dominates at short range: h(x) + h(-x) ~ 2|x| / sigma^2
    for sigma in (1.0, 0.7):
        model = models.jump_diffusion(sigma, 1.0, 1.0, 2.0)
        x = 1e-9
        got = (resolvent.zero_resolvent(model, x) + resolvent.zero_resolvent(model, -x)) / (2 * x)
        assert got == pytest.approx(1.0 / sigma**2, rel=1e-8)


def test_config_validation():
    with pytest.raises(ValueError):
        resolvent.resolvent_density(BM, -0.5, 1.0)
