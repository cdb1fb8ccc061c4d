"""Verification harness at small desk scale.

These runs use reduced ensembles and coarser grids than the acceptance
suite; they pin the estimators, the report bookkeeping, determinism and
the degenerate-case handling rather than the tight tolerances.
"""

import json
import math

import pytest

from levypen import models, verify
from levypen.pathsim import MCConfig, SimGrid
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


def test_identity_hb_jump_diffusion_cross_check():
    # asymmetric model: the only oracle for h(a) + h(-a) is the path measure
    jd = models.jump_diffusion(1.0, 1.0, 1.0, 2.0)
    mc = MCConfig(n_paths=2000, master_seed=13,
                  grid=SimGrid(dt=2.5e-4, horizon=30.0), censor_budget=0.35)
    r = verify.check_identity_local_time_until_hit(jd, 0.8, mc,
                                                   tol_extra=0.05 * 1.2126)
    assert r.passed, r.to_dict()
    assert r.metadata["h_crosscheck"] == "unavailable (asymmetric model)"


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
    p = PenalizationParams(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        verify.check_martingale(BM, p, (0.1,), 2.0, mc_small(horizon=0.6))


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
    fam = verify.TwoPointClockFamily(gamma=-1.0, rs=(50.0,))
    c, d = fam.thresholds(50.0)
    assert c == pytest.approx(100.0 + math.sqrt(50.0))
    assert d == pytest.approx(math.sqrt(50.0))


def test_inverse_clock_martingale_runs_and_documents_drift():
    """The harness must *detect* the structural drift of the clock process.

    exp(L^c H) carries an uncompensated local-time kink at c, so the
    mean grows like 1 + H sqrt(2 t / pi) from x0 = c; the check reports
    the excess rather than hiding it.
    """
    mc = MCConfig(n_paths=2000, master_seed=9, grid=SimGrid(dt=5e-4, horizon=100.0),
                  censor_budget=0.3)
    rate = estimate_decay_rate(BM, 1.0, 2.0, 0.0, 1.0, 1.0, mc)
    assert rate.estimate > 0
    # residual diagnostic: the u-decay really is exponential
    for resid, se in zip(rate.residuals, rate.log_stderrs):
        assert abs(resid) < 2.0 * se
    reports = verify.check_inverse_clock_martingale(
        BM, 1.0, 2.0, 0.0, 1.0, 1.0, (0.1, 0.25), 0.0, mc, rate=rate)
    for r, t in zip(reports, (0.1, 0.25)):
        predicted = 1.0 + rate.estimate * math.sqrt(2.0 * t / math.pi)
        assert r.estimate > 1.0 + 2.0 * r.stderr  # drift is resolved, not noise
        assert r.estimate == pytest.approx(predicted, abs=0.035)
        assert r.metadata["rate_estimate"] == rate.estimate


def test_inverse_clock_martingale_trivial_weight():
    mc = MCConfig(n_paths=500, master_seed=10, grid=SimGrid(dt=1e-3, horizon=10.0),
                  censor_budget=0.5)
    reports = verify.check_inverse_clock_martingale(
        BM, 1.0, 2.0, 0.0, 0.0, 0.0, (0.1,), 0.0, mc)
    r = reports[0]
    assert r.estimate == 1.0 and r.target == 1.0 and r.passed


def test_budget_clock_family_lhs_normalization():
    # F identically one makes the conditioned side exactly one at every u
    p = PenalizationParams(1.0, 2.0, 1.0, 1.0)
    mc = MCConfig(n_paths=1000, master_seed=12, grid=SimGrid(dt=1e-3, horizon=60.0),
                  censor_budget=0.4)
    rate = estimate_decay_rate(BM, 1.0, 2.0, 0.0, 1.0, 1.0, mc)
    fam = verify.LocalTimeBudgetClockFamily(c=0.0, us=(0.5, 1.0))
    ones = verify.ClippedIdentity(1.0, 1.0)
    reports = verify.check_penalization_limit(BM, p, fam, ones, 0.1, 0.0, mc, rate=rate)
    for r in reports:
        assert r.estimate == 1.0
        assert r.metadata["rate_estimate"] == rate.estimate
