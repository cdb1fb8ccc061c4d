"""Tests of the benchmark's oracles: limits they must reach on their own,
and agreement with levypen's quadrature where both apply.

    python3 -m pytest bench/test_oracles.py
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402

XS = (-3.0, -1.0, 0.5, 2.0)


def test_stable_at_alpha_two_is_brownian_with_variance_two():
    for x in XS:
        assert oracles.stable_h(x, 2.0) == pytest.approx(abs(x) / 2.0, rel=1e-15)


def test_residues_without_jumps_give_brownian_h():
    jd = oracles.JumpDiffusion(1.3, 0.0, 1.0, 2.0)
    for x in XS:
        assert jd.h(x) == pytest.approx(abs(x) / 1.3**2, rel=1e-12, abs=1e-15)


def test_residues_without_jumps_give_brownian_resolvent():
    jd = oracles.JumpDiffusion(1.0, 0.0, 1.0, 2.0)
    for q in (0.1, 1.0, 10.0):
        for x in (-5.0, 0.0, 1.0):
            assert jd.resolvent(q, x) == pytest.approx(oracles.bm_resolvent(q, x), rel=1e-9)


def test_jump_diffusion_roots():
    upper, lower = oracles.JumpDiffusion(1.0, 1.0, 1.0, 2.0).q_roots()
    assert upper.imag == pytest.approx((1 + math.sqrt(17)) / 2)
    assert lower.imag == pytest.approx((1 - math.sqrt(17)) / 2)


def test_resolvent_integrates_to_one_over_q():
    # int r_q(x) dx = 1/q for every process
    jd = oracles.JumpDiffusion(1.0, 1.0, 1.0, 2.0)
    from scipy.integrate import quad
    for q in (0.5, 2.0):
        total = (quad(lambda x: jd.resolvent(q, -x), 0.0, math.inf)[0]
                 + quad(lambda x: jd.resolvent(q, x), 0.0, math.inf)[0])
        assert total == pytest.approx(1.0 / q, rel=1e-8)


def test_stable_resolvent_at_zero_by_quadrature():
    from scipy.integrate import quad
    for alpha in (1.2, 1.5, 2.0):
        for q in (0.1, 10.0):
            want = quad(lambda lam: 1.0 / (q + lam**alpha), 0.0, math.inf)[0] / math.pi
            assert oracles.stable_resolvent_at_zero(q, alpha) == pytest.approx(want, rel=1e-8)


def test_green_function_identities_for_brownian_motion():
    # interval Green function 2 a d / (a + d) and the ruin probability
    assert oracles.local_time_until_either_hit(oracles.bm_h, 1.0, -2.0) == pytest.approx(4 / 3)
    for x in (-1.0, 0.25, 0.5, 2.0):
        assert oracles.prob_hit_before(oracles.bm_h, x, 0.0, 1.0) == pytest.approx(
            oracles.bm_ruin(x, 0.0, 1.0), abs=1e-15)
        assert oracles.avoid_factor(oracles.bm_h, x, 0.0, 1.0) == pytest.approx(
            oracles.bm_avoid_factor(x, 0.0, 1.0), abs=1e-15)


def test_limit_reference_by_reflection():
    # sigma = 1/2 at t = 1/4: 1/2 + sigma / sqrt(2 pi) less a 4-sigma image term
    want = 0.5 + 0.5 / math.sqrt(2 * math.pi)
    got = oracles.bm_limit_reference(2.0, 1.0, 0.25, 2.0)
    assert got == pytest.approx(want, abs=5e-5)
    assert got == pytest.approx(0.69944, abs=1e-5)


@pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
def test_stable_h_matches_levypen_quadrature(alpha):
    from levypen import models, resolvent
    model = models.symmetric_stable(alpha)
    for x in XS:
        assert abs(oracles.stable_h(x, alpha) - resolvent.zero_resolvent(model, x)) <= 6e-8


def test_jump_diffusion_h_matches_levypen_quadrature():
    from levypen import models, resolvent
    model = models.jump_diffusion(1.0, 1.0, 1.0, 2.0)
    jd = oracles.JumpDiffusion(1.0, 1.0, 1.0, 2.0)
    for x in XS:
        assert abs(jd.h(x) - resolvent.zero_resolvent(model, x)) < 1e-7
