"""Verification harness at small desk scale.

These runs use reduced ensembles and coarser grids than the acceptance
suite; they pin the estimators, the report bookkeeping, determinism and
the degenerate-case handling rather than the tight tolerances.
"""

import json
import math

import numpy as np
import pytest

from levypen import models, pathsim, resolvent, verify
from levypen import penalization as pen
from levypen.pathsim import NOT_HIT, MCConfig, PathPlan, SimGrid, walk_ensemble
from levypen.penalization import PenalizationParams, estimate_decay_rate

BM = models.brownian(1.0)
ST = models.symmetric_stable(1.5)
INF = math.inf


def mc_small(n=2000, seed=7, dt=1e-3, horizon=30.0, budget=0.3):
    return MCConfig(n_paths=n, master_seed=seed, grid=SimGrid(dt=dt, horizon=horizon),
                    censor_budget=budget)


@pytest.fixture(scope="module")
def hb_report():
    return verify.check_identity_local_time_until_hit(BM, 1.0, mc_small(), tol_extra=0.06)


def test_identity_hb(hb_report):
    r = hb_report
    assert r.target == 2.0
    assert r.passed
    assert r.censored_fraction <= 0.3
    assert r.metadata["estimator"] == "exposure-rate"


def test_identity_hb_rejects_origin():
    with pytest.raises(ValueError):
        verify.check_identity_local_time_until_hit(BM, 0.0, mc_small())


def test_identity_hc():
    r = verify.check_identity_local_time_until_either_hit(BM, 1.0, -2.0, mc_small(),
                                                          tol_extra=0.04)
    assert r.target == pytest.approx(4.0 / 3.0)
    assert r.passed
    assert r.censored_fraction < 0.01  # two-sided exit is exponentially integrable


def test_identity_laplace():
    r = verify.check_inverse_lt_laplace(BM, 1.0, 0.5, mc_small(dt=2.5e-4, horizon=20.0),
                                        tol_extra=0.02)
    assert r.target == pytest.approx(math.exp(-0.5 * math.sqrt(2.0)), abs=1e-9)
    assert r.passed
    assert r.metadata["censored_bias_bound"] < 1e-8


def test_report_self_audit(hb_report):
    r = hb_report
    assert r.recompute_pass() == r.passed
    doc = r.to_dict()
    json.dumps(doc)  # serializable
    # flipping the estimate far away must flip the recomputed bit
    kwargs = dict(doc)
    kwargs["passed"] = kwargs.pop("pass")
    kwargs["estimate"] = 99.0
    assert not verify.CheckReport(**kwargs).recompute_pass()


def test_reports_bit_identical_across_runs(hb_report):
    again = verify.check_identity_local_time_until_hit(BM, 1.0, mc_small(), tol_extra=0.06)
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
        hb_report.to_dict(), sort_keys=True)


def test_martingale_check_all_regimes():
    mc = mc_small(n=2000, seed=11, dt=1e-3, horizon=0.6)
    for la, lb, x0 in ((1.0, 1.0, 2.0), (1.0, INF, 2.0), (INF, INF, 2.0)):
        p = PenalizationParams(0.0, 1.0, la, lb, 0.0)
        reports = verify.check_martingale(BM, p, (0.1, 0.5), x0, mc, tol_extra=None)
        assert len(reports) == 2
        for r in reports:
            assert r.passed, (r.name, r.estimate, r.target, r.stderr)
            assert r.censored_fraction == 0.0
    # time zero would be trivial; t must stay within the horizon
    with pytest.raises(ValueError):
        verify.check_martingale(BM, p, (5.0,), 2.0, mc)


def test_martingale_jump_diffusion_all_regimes():
    # the asymmetric model, where h(x) != h(-x) and the tilt matters
    jd = models.jump_diffusion(1.0, 1.0, 1.0, 2.0)
    mc = MCConfig(n_paths=2000, master_seed=1, grid=SimGrid(dt=1e-3, horizon=0.55))
    for la, lb in ((1.0, 1.0), (1.0, INF), (INF, INF)):
        p = PenalizationParams(0.0, 1.0, la, lb)
        reports = verify.check_martingale(jd, p, (0.1, 0.5), 2.0, mc)
        for r in reports:
            assert r.passed, (la, lb, r.name, r.estimate, r.target, r.stderr)


def test_identity_hb_jump_diffusion_cross_check():
    # asymmetric model: the path measure checks the residue form of h(a) + h(-a)
    jd = models.jump_diffusion(1.0, 1.0, 1.0, 2.0)
    mc = MCConfig(n_paths=2000, master_seed=13,
                  grid=SimGrid(dt=2.5e-4, horizon=30.0), censor_budget=0.35)
    r = verify.check_identity_local_time_until_hit(jd, 0.8, mc,
                                                   tol_extra=0.05 * 1.2126)
    assert r.passed, r.to_dict()
    assert r.metadata["h_crosscheck"] == resolvent.H_CLOSED_FORM["jump-diffusion"]


def test_identity_laplace_short_budget_limit():
    # l -> 0: the inverse local time collapses to the start, the target to one
    mc = MCConfig(n_paths=200, master_seed=5, grid=SimGrid(dt=1e-3, horizon=5.0),
                  censor_budget=0.5)
    r = verify.check_inverse_lt_laplace(BM, 1.0, 1e-6, mc, tol_extra=0.02)
    assert r.target == pytest.approx(1.0, abs=1e-5)
    assert r.passed


def test_martingale_time_zero_is_exact():
    mc = MCConfig(n_paths=200, master_seed=5, grid=SimGrid(dt=1e-3, horizon=5.0),
                  censor_budget=0.5)
    p = PenalizationParams(0.0, 1.0, 1.0, 1.0, 0.0)
    reports = verify.check_martingale(BM, p, (0.0, 0.1), 2.0, mc)
    assert reports[0].estimate == reports[0].target


def test_martingale_targets_collapse_for_stable():
    # infinite second moment: the tilt drops out of every target
    mc = MCConfig(n_paths=100, master_seed=5, grid=SimGrid(dt=2e-3, horizon=0.2),
                  censor_budget=0.5)
    targets = set()
    for gamma in (-1.0, 0.0, 1.0):
        p = PenalizationParams(0.0, 1.0, INF, INF, gamma)
        r = verify.check_martingale(ST, p, (0.1,), 2.0, mc)[0]
        targets.add(r.target)
    assert len(targets) == 1


def test_martingale_degenerate_start():
    p = PenalizationParams(0.0, 1.0, INF, INF, 0.0)
    with pytest.raises(verify.DegenerateStartError):
        verify.check_martingale(BM, p, (0.1,), 0.5, mc_small(horizon=0.6))


def test_martingale_check_rejects_unweighted():
    # the unit weight (0, 0) is no penalization: it fails at construction
    with pytest.raises(ValueError, match=r"rate pair \(0.0, 0.0\) is none of"):
        PenalizationParams(0.0, 1.0, 0.0, 0.0)


def test_limit_check_exponential_and_trivial_functional():
    p = PenalizationParams(0.0, 1.0, INF, INF, 0.0)
    mc = mc_small(n=2000, seed=3, dt=0.01, horizon=1500.0, budget=0.2)
    fam = verify.ExponentialClockFamily(qs=(0.1, 0.02))
    # F identically one: the conditioned side is exactly one
    ones = verify.ClippedIdentity(1.0, 1.0)
    reports = verify.check_penalization_limit(BM, p, fam, ones, 0.25, 2.0, mc)
    for r in reports:
        assert r.estimate == 1.0
        assert r.passed
    reports = verify.check_penalization_limit(
        BM, p, fam, verify.IndicatorAbove(2.0), 0.25, 2.0, mc)
    assert reports[-1].passed
    assert reports[-1].metadata["clock"] == {"family": "exponential", "q": 0.02}


def test_limit_check_hitting_and_degenerate_direction():
    p = PenalizationParams(0.0, 1.0, INF, INF, 0.0)
    mc = mc_small(n=2000, seed=5, dt=0.01, horizon=1500.0, budget=0.2)
    fam = verify.HittingClockFamily(cs=(5.0, 12.0))
    reports = verify.check_penalization_limit(
        BM, p, fam, verify.IndicatorAbove(2.0), 0.25, 2.0, mc)
    assert reports[-1].passed
    with pytest.raises(verify.DegenerateStartError):
        verify.check_penalization_limit(
            BM, p, verify.HittingClockFamily(cs=(-5.0,)),
            verify.IndicatorAbove(2.0), 0.25, 2.0, mc)


def test_limit_check_two_point_directions():
    p = PenalizationParams(0.0, 1.0, INF, INF, 0.0)
    mc = mc_small(n=2000, seed=6, dt=0.01, horizon=2500.0, budget=0.2)
    for gamma in (0.0, 1.0):
        fam = verify.TwoPointClockFamily(gamma=gamma, rs=(8.0,))
        reports = verify.check_penalization_limit(
            BM, p, fam, verify.IndicatorAbove(2.0), 0.25, 2.0, mc)
        assert reports[-1].passed, (gamma, reports[-1].estimate, reports[-1].target)
    with pytest.raises(verify.DegenerateStartError):
        verify.check_penalization_limit(
            BM, p, verify.TwoPointClockFamily(gamma=-1.0, rs=(8.0,)),
            verify.IndicatorAbove(2.0), 0.25, 2.0, mc)


def test_limit_check_inverse_lt_clock():
    p = PenalizationParams(0.0, 1.0, INF, INF, 0.0)
    mc = mc_small(n=2000, seed=8, dt=0.01, horizon=2500.0, budget=0.2)
    fam = verify.InverseLocalTimeClockFamily(cs=(8.0,), u=1.0)
    reports = verify.check_penalization_limit(
        BM, p, fam, verify.IndicatorAbove(2.0), 0.25, 2.0, mc)
    assert reports[-1].passed


@pytest.mark.parametrize("family", [
    verify.ExponentialClockFamily(qs=(0.05,)),
    verify.HittingClockFamily(cs=(8.0,)),
    verify.TwoPointClockFamily(gamma=1.0, rs=(8.0,)),
    verify.InverseLocalTimeClockFamily(cs=(8.0,), u=0.5),
], ids=("exp", "hit", "two-point", "inverse-lt"))
def test_limit_check_single_regime_with_finite_weight(family):
    # one finite rate: the clock weight needs the local time recorded at the
    # clock's ring (detection-state bookkeeping in the walker)
    p = PenalizationParams(0.0, 1.0, 1.0, INF, 0.0)
    mc = mc_small(n=2000, seed=9, dt=5e-3, horizon=1500.0, budget=0.2)
    reports = verify.check_penalization_limit(
        BM, p, family, verify.IndicatorAbove(2.0), 0.25, 2.0, mc)
    assert reports[-1].passed, (reports[-1].estimate, reports[-1].target,
                                reports[-1].stderr)


def test_limit_check_finite_finite_regime():
    # both rates finite: no avoidance events, the clock alone resolves paths
    p = PenalizationParams(0.0, 1.0, 1.0, 2.0, 0.0)
    mc = mc_small(n=2000, seed=14, dt=5e-3, horizon=1500.0, budget=0.2)
    reports = verify.check_penalization_limit(
        BM, p, verify.ExponentialClockFamily(qs=(0.05,)),
        verify.IndicatorAbove(2.0), 0.25, 2.0, mc)
    assert reports[-1].passed, (reports[-1].estimate, reports[-1].target,
                                reports[-1].stderr)


def test_clock_family_validation():
    with pytest.raises(ValueError):
        verify.HittingClockFamily(cs=(1.0, -2.0))
    with pytest.raises(ValueError):
        verify.TwoPointClockFamily(gamma=2.0, rs=(1.0,))
    with pytest.raises(ValueError):
        verify.ExponentialClockFamily(qs=(0.0,))
    with pytest.raises(ValueError):
        verify.InverseLocalTimeClockFamily(cs=(1.0,), u=0.0)
    with pytest.raises(ValueError):
        verify.LocalTimeBudgetClockFamily(c=0.0, us=(2.0, 1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            verify.HittingClockFamily(cs=(bad,))
        with pytest.raises(ValueError):
            verify.InverseLocalTimeClockFamily(cs=(1.0, bad))
        with pytest.raises(ValueError):
            verify.LocalTimeBudgetClockFamily(c=bad, us=(1.0,))
    # a schedule is nonempty, finite and strictly monotone toward the limit;
    # an empty one passed vacuously, (inf,) two-point ended in KeyError: nan
    for make in (lambda: verify.ExponentialClockFamily(qs=()),
                 lambda: verify.TwoPointClockFamily(gamma=0.0, rs=()),
                 lambda: verify.LocalTimeBudgetClockFamily(c=0.0, us=()),
                 lambda: verify.HittingClockFamily(cs=()),
                 lambda: verify.InverseLocalTimeClockFamily(cs=()),
                 lambda: verify.ExponentialClockFamily(qs=(math.inf,)),
                 lambda: verify.InverseLocalTimeClockFamily(cs=(1.0,), u=math.inf),
                 lambda: verify.LocalTimeBudgetClockFamily(c=0.0, us=(1.0, math.inf)),
                 lambda: verify.TwoPointClockFamily(gamma=1.0, rs=(math.inf,)),
                 lambda: verify.HittingClockFamily(cs=(50.0, 10.0)),
                 lambda: verify.HittingClockFamily(cs=(-10.0, -10.0)),
                 lambda: verify.InverseLocalTimeClockFamily(cs=(-50.0, -10.0)),
                 lambda: verify.ExponentialClockFamily(qs=(0.01, 0.1)),
                 lambda: verify.TwoPointClockFamily(gamma=0.0, rs=(4.0, 2.0)),
                 lambda: verify.LocalTimeBudgetClockFamily(c=0.0, us=(1.0, 1.0))):
        with pytest.raises(ValueError, match="ClockFamily: "):
            make()
    (clock,) = verify.TwoPointClockFamily(gamma=-1.0, rs=(50.0,)).clocks()
    c, minus_d = clock.hit_levels
    assert c == pytest.approx(100.0 + math.sqrt(50.0))
    assert minus_d == pytest.approx(-math.sqrt(50.0))
    assert clock.meta == {"family": "two-point", "r": 50.0, "gamma": -1.0, "c": c,
                          "d": -minus_d}


def test_inverse_clock_martingale_runs_and_documents_drift():
    """The harness must *detect* the structural drift of the clock process.

    exp(L^c H) carries an uncompensated local-time kink at c, so the
    mean grows like 1 + H sqrt(2 t / pi) from x0 = c; the check reports
    the excess rather than hiding it.
    """
    mc = MCConfig(n_paths=2000, master_seed=9, grid=SimGrid(dt=5e-4, horizon=100.0),
                  censor_budget=0.3)
    rate = estimate_decay_rate(BM, PenalizationParams(1.0, 2.0, 1.0, 1.0), 0.0, mc)
    assert rate.estimate > 0
    # residual diagnostic: the u-decay really is exponential
    for resid, se in zip(rate.residuals, rate.log_stderrs):
        assert abs(resid) < 2.0 * se
    reports = verify.check_inverse_clock_martingale(
        BM, PenalizationParams(1.0, 2.0, 1.0, 1.0), 0.0, (0.1, 0.25), 0.0, mc, rate=rate)
    for r, t in zip(reports, (0.1, 0.25)):
        predicted = 1.0 + rate.estimate * math.sqrt(2.0 * t / math.pi)
        assert r.estimate > 1.0 + 2.0 * r.stderr  # drift is resolved, not noise
        assert r.estimate == pytest.approx(predicted, abs=0.035)
        assert r.metadata["rate_estimate"] == rate.estimate


def test_martingale_checks_reject_t_outside_the_horizon():
    # the inverse-clock check used to walk every path, then fail with a KeyError
    mc = MCConfig(n_paths=100, master_seed=1, grid=SimGrid(dt=1e-3, horizon=0.5))
    params = PenalizationParams(1.0, 2.0, 1.0, 1.0)
    for bad in ((0.1, 0.9), (-0.1,), ()):
        with pytest.raises(ValueError, match="t grid"):
            verify.check_inverse_clock_martingale(BM, params, 0.0, bad, 0.0, mc)
        with pytest.raises(ValueError, match="t grid"):
            verify.check_martingale(BM, params, bad, 0.0, mc)


def test_budget_clock_family_lhs_normalization():
    # F identically one makes the conditioned side exactly one at every u
    p = PenalizationParams(1.0, 2.0, 1.0, 1.0)
    mc = MCConfig(n_paths=1000, master_seed=12, grid=SimGrid(dt=1e-3, horizon=60.0),
                  censor_budget=0.4)
    rate = estimate_decay_rate(BM, p, 0.0, mc)
    fam = verify.LocalTimeBudgetClockFamily(c=0.0, us=(0.5, 1.0))
    ones = verify.ClippedIdentity(1.0, 1.0)
    reports = verify.check_penalization_limit(BM, p, fam, ones, 0.1, 0.0, mc, rate=rate)
    for r in reports:
        assert r.estimate == 1.0
        assert r.metadata["rate_estimate"] == rate.estimate


@pytest.mark.parametrize("model", [BM, models.symmetric_stable(2.0)], ids=("bm", "stable-2"))
@pytest.mark.parametrize("la", [1.0, INF])
def test_budget_clock_rejects_an_avoided_point_before_the_level(model, la, monkeypatch):
    # from x0 = 2 a continuous path reaches c = -1 only through the avoided
    # point b = 1, so no path rings the clock with a positive weight; the
    # set-up is rejected before the decay-rate estimate and the walks
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a path")
    monkeypatch.setattr(pathsim, "_walk", no_walk)
    monkeypatch.setattr(verify, "walk_one", no_walk)
    monkeypatch.setattr(verify, "estimate_decay_rate", no_walk)
    p = PenalizationParams(0.0, 1.0, la, INF)
    fam = verify.LocalTimeBudgetClockFamily(c=-1.0, us=(0.5, 1.0))
    with pytest.raises(verify.DegenerateStartError, match=r"avoided point [01]\.0 lies"):
        verify.check_penalization_limit(model, p, fam, verify.IndicatorAbove(2.0), 0.25,
                                        2.0, mc_small(n=100, dt=4e-3, horizon=60.0))


def test_budget_clock_rejects_a_straddled_point_of_a_jump_model_before_any_walk(monkeypatch):
    # the jump diffusion may jump over b = 1 on its way from x0 = 2 to
    # c = -1, but the walker counts a step that straddles a point as a hit
    # for every model with a Gaussian part, so no walked path would ring
    # the clock with a positive weight
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a path")
    monkeypatch.setattr(pathsim, "_walk", no_walk)
    jd = models.jump_diffusion(1.0, 1.0, 1.0, 2.0)
    fam = verify.LocalTimeBudgetClockFamily(c=-1.0, us=(0.5, 1.0))
    for la in (1.0, INF):
        p = PenalizationParams(0.0, 1.0, la, INF)
        with pytest.raises(pen.MCDegenerateError, match=r"point [01]\.0 lies.*straddle rule"):
            verify.check_penalization_limit(jd, p, fam, verify.IndicatorAbove(2.0), 0.25,
                                            2.0, mc_small(n=100, dt=4e-3, horizon=60.0))


def test_limit_check_rejects_t_past_the_horizon_before_any_walk(monkeypatch):
    # the budget family's reference estimates the decay rate by walking a
    # whole ensemble; a functional time past the horizon fails before that
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a path")
    monkeypatch.setattr(pathsim, "_walk", no_walk)
    monkeypatch.setattr(verify, "walk_one", no_walk)
    monkeypatch.setattr(verify, "estimate_decay_rate", no_walk)
    p = PenalizationParams(1.0, 2.0, 1.0, 1.0)
    fam = verify.LocalTimeBudgetClockFamily(c=0.0, us=(0.5, 1.0))
    for t in (100.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="within the horizon"):
            verify.check_penalization_limit(BM, p, fam, verify.IndicatorAbove(2.0), t, 0.0,
                                            mc_small(n=100, dt=4e-3, horizon=60.0))


def _forbid_walks(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a path")
    monkeypatch.setattr(pathsim, "_walk", no_walk)
    monkeypatch.setattr(verify, "walk_one", no_walk)
    return no_walk


@pytest.mark.parametrize("bad", [math.nan, INF, -INF])
def test_non_finite_points_rejected_before_any_walk(bad, monkeypatch):
    # h(nan) is nan and h(inf) inf: the closed forms returned nan, and the
    # identity checks walked a whole ensemble against a nan target
    _forbid_walks(monkeypatch)
    mc = mc_small(n=100, dt=4e-3, horizon=60.0)
    calls = (lambda: pen.local_time_until_hit(BM, bad),
             lambda: pen.local_time_until_either_hit(BM, 1.0, bad),
             lambda: pen.local_time_until_either_hit(BM, bad, 1.0),
             lambda: pen.prob_hit_before(BM, 0.5, 1.0, bad),
             lambda: pen.prob_hit_before(BM, 0.5, bad, 1.0),
             lambda: verify.check_identity_local_time_until_hit(BM, bad, mc),
             lambda: verify.check_identity_local_time_until_either_hit(BM, 1.0, bad, mc),
             lambda: verify.check_identity_local_time_until_either_hit(BM, bad, 1.0, mc))
    for call in calls:
        with pytest.raises(ValueError, match="must be finite"):
            call()


def test_decay_rate_rejects_bad_points_and_rates_before_any_walk(monkeypatch):
    # a NaN rate used to be dropped silently and (inf, 1) to fail only in
    # the check after the whole decay walk; the params now reject the
    # rates, and the fit and the check reject the clock level
    _forbid_walks(monkeypatch)
    mc = mc_small(n=100, dt=4e-3, horizon=60.0)
    for la, lb in ((math.nan, 1.0), (1.0, math.nan), (INF, 1.0)):
        with pytest.raises(ValueError, match=rf"rate pair \({la}, {lb}\)"):
            PenalizationParams(1.0, 2.0, la, lb)
    params = PenalizationParams(1.0, 2.0, 1.0, 1.0)
    monkeypatch.setattr(verify, "estimate_decay_rate", _forbid_walks(monkeypatch))
    for c in (math.nan, INF, -INF):
        with pytest.raises(ValueError, match="clock level"):
            estimate_decay_rate(BM, params, c, mc)
        with pytest.raises(ValueError, match="clock level"):
            verify.check_inverse_clock_martingale(BM, params, c, (0.1,), 0.0, mc)


@pytest.mark.parametrize("c", [math.nan, INF, 1.0])
def test_clock_level_is_checked_with_an_injected_rate(c, monkeypatch):
    # only the decay-rate fit checked the clock level, so with a rate given
    # a NaN, infinite or penalized level walked a whole ensemble to a pass
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a path")
    for mod in (verify, pen):
        monkeypatch.setattr(mod, "walk_ensemble", no_walk)
    rate = pen.DecayRateEstimate(
        estimate=0.5, stderr=0.01, raw_estimate=0.5, u_grid=(0.5, 1.0, 2.0),
        log_means=(0.25, 0.5, 1.0), log_stderrs=(0.01,) * 3, residuals=(0.0,) * 3,
        survivors=(100,) * 3, censored_fraction=0.0)
    mc = mc_small(n=100, dt=4e-3, horizon=60.0)
    with pytest.raises(ValueError, match="clock level"):
        verify.check_inverse_clock_martingale(BM, PenalizationParams(1.0, 2.0, 1.0, 1.0), c,
                                              (0.1,), 0.0, mc, rate=rate)
    with pytest.raises(ValueError, match="clock level"):
        verify.check_penalization_limit(
            BM, PenalizationParams(1.0, 2.0, 1.0, 1.0),
            verify.LocalTimeBudgetClockFamily(c=c, us=(0.5, 1.0)),
            verify.IndicatorAbove(2.0), 0.1, 0.0, mc, rate=rate)


def test_nan_in_the_t_grid_is_rejected_before_any_walk(monkeypatch):
    # a NaN time used to reach int(round(nan)): "cannot convert float NaN"
    monkeypatch.setattr(verify, "estimate_decay_rate", _forbid_walks(monkeypatch))
    mc = mc_small(n=100, dt=4e-3, horizon=60.0)
    p = PenalizationParams(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="t grid"):
        verify.check_martingale(BM, p, (0.1, math.nan), 0.0, mc)
    with pytest.raises(ValueError, match="t grid"):
        verify.check_inverse_clock_martingale(BM, p, 0.0, (math.nan,), 0.0, mc)
    with pytest.raises(ValueError, match="t grid"):
        verify.check_penalization_limit(BM, p, verify.ExponentialClockFamily(qs=(1.0,)),
                                        verify.IndicatorAbove(2.0), math.nan, 0.0, mc)


def test_decay_rate_stderr_is_the_batch_stderr_with_empty_batches():
    # the `levypen estimate-h` run of brownian-1-2 in tools/outputs.py: two
    # of the 50 batches have no path at u = 2, and the fit used to divide
    # their spread by sqrt(50) all the same
    mc = MCConfig(n_paths=200, master_seed=2024, grid=SimGrid(dt=1e-3, horizon=10.0))
    params = PenalizationParams(0.0, 1.0, 1.0, 2.0)
    est = estimate_decay_rate(BM, params, -1.0, mc)
    plan = PathPlan(tracked_levels=(-1.0, 0.0, 1.0), lt_level=-1.0,
                    lt_thresholds=est.u_grid)
    weights, present = np.zeros((3, 200)), np.zeros((3, 200))
    rec = walk_ensemble(BM, -1.0, mc.grid, plan, 2024, pen._TAG_DECAY, 200)
    for j, u in enumerate(est.u_grid):
        crossed = rec.crossings[u].step != NOT_HIT
        present[j, crossed] = 1.0
        weights[j, crossed] = pen.path_weight(params, plan, rec.crossings[u])[crossed]
    assert (present[2].reshape(50, -1).sum(axis=1) > 0).sum() == 48
    for w, n, log_se in zip(weights, present, est.log_stderrs):
        want = verify._batch_stderr(w, n) / (w.sum() / n.sum())
        assert log_se == pytest.approx(want, rel=1e-12)


def test_batch_stderr_is_the_batch_means_estimator():
    rng = np.random.default_rng(5)
    n = 50 * 40
    num = rng.normal(size=n)
    means = num.reshape(50, -1).mean(axis=1)
    assert verify._batch_stderr(num) == float(means.std(ddof=1) / math.sqrt(50))
    # the first three batches have empty denominators and drop
    den = (rng.random(n) < 0.3).astype(float)
    den[:3 * 40] = 0.0
    rhs = rng.normal(size=n)
    ns = (num * den).reshape(50, -1).sum(axis=1)
    ds = den.reshape(50, -1).sum(axis=1)
    assert (ds[3:] > 0).all()
    ratios = ns[3:] / ds[3:]
    assert (verify._batch_stderr(num * den, den)
            == float(ratios.std(ddof=1) / math.sqrt(47)))
    diffs = ratios - rhs.reshape(50, -1).mean(axis=1)[3:]
    assert (verify._batch_stderr(num * den, den, rhs)
            == float(diffs.std(ddof=1) / math.sqrt(47)))
    # fewer than two batches with a denominator: no spread to measure
    one = np.zeros(n)
    one[:40] = 1.0
    assert verify._batch_stderr(num, one) == math.inf
    assert verify._batch_stderr(num, np.zeros(n), rhs) == math.inf
