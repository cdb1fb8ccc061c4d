"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete).  All Monte Carlo runs are seed-pinned, so outcomes
are bit-reproducible.

Criterion 12 is split: the decay-rate fit diagnostic (12a) passes; the
inverse-clock martingale comparison (12b) fails and is expected to:
the reference process carries an uncompensated local-time drift
(measured to match 1 + rate * sqrt(2 t / pi)), see the test docstring.
The check itself behaves per its contract: a failure indicts the
martingale claim, and the harness resolves the violation far beyond
noise.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from levypen import cli, models, resolvent, verify
from levypen.pathsim import MCConfig, SimGrid
from levypen.penalization import (PenalizationParams, estimate_decay_rate,
                                  local_time_until_either_hit, martingale_factor,
                                  prob_hit_before)

BM = models.brownian(1.0)
ST = models.symmetric_stable(1.5)
INF = math.inf
SEED = 20250809


def _report(num, ok, detail, budget, elapsed):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num}: {detail} ({elapsed:.1f}s of {budget})")


def test_acceptance_01_brownian_resolvent_oracle():
    start = time.perf_counter()
    worst = 0.0
    for q in (0.1, 0.5, 1.0, 10.0):
        for x in (-5.0, -1.0, 0.0, 1.0, 5.0):
            got = resolvent.resolvent_density(BM, q, x)
            want = math.exp(-math.sqrt(2 * q) * abs(x)) / math.sqrt(2 * q)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    _report(1, ok, f"resolvent density vs closed form, worst rel {worst:.2e}", "1s", elapsed)
    assert worst < 1e-8
    assert elapsed < 1.0


def test_acceptance_02_brownian_zero_resolvent_oracle():
    start = time.perf_counter()
    worst = 0.0
    for x in (-3.0, -1.0, 0.5, 2.0):
        worst = max(worst, abs(resolvent.zero_resolvent(BM, x) - abs(x)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    _report(2, ok, f"zero resolvent vs |x|, worst abs {worst:.2e}", "5s", elapsed)
    assert worst < 1e-6
    assert elapsed < 5.0


def test_acceptance_03_two_point_local_time_closed_case():
    start = time.perf_counter()
    # independent oracle: interval Green function 2 a d / (a + d) at the origin
    want = 2.0 * 1.0 * 2.0 / (1.0 + 2.0)
    ref_h = resolvent.zero_resolvent_fn(BM)
    got_fast = local_time_until_either_hit(BM, 1.0, -2.0, h=ref_h)
    quad_h = lambda x: resolvent.zero_resolvent(BM, float(x))
    got_quad = local_time_until_either_hit(BM, 1.0, -2.0, h=quad_h)
    sym_equal = (local_time_until_either_hit(BM, 1.0, -2.0)
                 == local_time_until_either_hit(BM, -2.0, 1.0))
    elapsed = time.perf_counter() - start
    ok = (abs(got_fast - want) < 1e-6 and abs(got_quad - want) < 1e-6
          and sym_equal and elapsed < 5.0)
    _report(3, ok, f"two-point identity 4/3: fast {got_fast:.8f}, quadrature "
                   f"{got_quad:.8f}, swap-exact {sym_equal}", "5s", elapsed)
    assert abs(got_fast - want) < 1e-6
    assert abs(got_quad - want) < 1e-6
    assert sym_equal
    assert elapsed < 5.0


def test_acceptance_04_gamblers_ruin_and_complement():
    start = time.perf_counter()
    worst_gr = max(abs(prob_hit_before(BM, x, 0.0, 1.0) - (1.0 - x))
                   for x in (0.25, 0.5, 0.75))
    grid = [x for x in np.linspace(-3.0, 3.0, 22) if x not in (0.0, 1.0)][:20]
    worst_c = max(abs(prob_hit_before(ST, float(x), 0.0, 1.0)
                      + prob_hit_before(ST, float(x), 1.0, 0.0) - 1.0)
                  for x in grid)
    elapsed = time.perf_counter() - start
    ok = worst_gr < 1e-8 and worst_c < 1e-8
    _report(4, ok, f"gamblers ruin worst {worst_gr:.2e}, stable complement "
                   f"worst {worst_c:.2e}", "-", elapsed)
    assert worst_gr < 1e-8
    assert worst_c < 1e-8


def test_acceptance_05_expected_local_time_single_hit_mc():
    start = time.perf_counter()
    mc = MCConfig(n_paths=10_000, master_seed=SEED,
                  grid=SimGrid(dt=1e-4, horizon=40.0), censor_budget=0.2)
    r = verify.check_identity_local_time_until_hit(BM, 1.0, mc, tol_extra=0.02)
    elapsed = time.perf_counter() - start
    ok = r.passed and elapsed < 120
    _report(5, ok, f"E[L until hit] {r.estimate:.4f} vs 2.0, se {r.stderr:.4f}, "
                   f"censored {r.censored_fraction:.3f}", "2min", elapsed)
    assert r.passed, r.to_dict()
    assert elapsed < 120


def test_acceptance_06_expected_local_time_two_point_mc():
    start = time.perf_counter()
    mc = MCConfig(n_paths=10_000, master_seed=SEED,
                  grid=SimGrid(dt=1e-4, horizon=40.0), censor_budget=0.2)
    r = verify.check_identity_local_time_until_either_hit(
        BM, 1.0, -2.0, mc, tol_extra=0.01 * 4.0 / 3.0)
    elapsed = time.perf_counter() - start
    ok = r.passed and elapsed < 120
    _report(6, ok, f"E[L until either hit] {r.estimate:.4f} vs {r.target:.4f}, "
                   f"se {r.stderr:.4f}", "2min", elapsed)
    assert r.passed, r.to_dict()
    assert elapsed < 120


def test_acceptance_07_inverse_local_time_laplace_mc():
    start = time.perf_counter()
    mc = MCConfig(n_paths=4000, master_seed=SEED,
                  grid=SimGrid(dt=2.5e-5, horizon=20.0), censor_budget=0.2)
    r = verify.check_inverse_lt_laplace(BM, 1.0, 0.5, mc, tol_extra=0.02 * 0.49307)
    elapsed = time.perf_counter() - start
    ok = r.passed and elapsed < 120
    _report(7, ok, f"Laplace at inverse local time {r.estimate:.5f} vs "
                   f"{r.target:.5f}, se {r.stderr:.5f}", "2min", elapsed)
    assert r.passed, r.to_dict()
    assert elapsed < 120


def _admissible_start(model, params):
    if model.kind == "stable":
        return 2.0
    if params.gamma >= 0.0 or params.regime == "finite":
        return 2.0
    return -1.0


def test_acceptance_08_martingale_suites():
    start = time.perf_counter()
    failures = []
    count = 0
    for model in (BM, ST):
        for la, lb in ((1.0, 1.0), (1.0, INF), (INF, INF)):
            for gamma in (-1.0, 0.0, 1.0):
                params = PenalizationParams(0.0, 1.0, la, lb, gamma)
                x0 = _admissible_start(model, params)
                assert martingale_factor(model, params, x0) > 0
                mc = MCConfig(n_paths=10_000, master_seed=SEED + count,
                              grid=SimGrid(dt=1e-4, horizon=0.55),
                              censor_budget=0.2)
                reports = verify.check_martingale(model, params, (0.1, 0.5), x0, mc)
                count += 1
                for r in reports:
                    if not r.passed:
                        failures.append((model.kind, la, lb, gamma, r.name,
                                         r.estimate, r.target, r.stderr))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 900
    _report(8, ok, f"{count} martingale combinations x 2 times, failures: "
                   f"{failures or 'none'}", "15min", elapsed)
    assert not failures, failures
    assert elapsed < 900


def test_acceptance_09_tilt_collapse_for_stable():
    start = time.perf_counter()
    grid = np.linspace(-3.0, 3.0, 20)
    worst = 0.0
    for la, lb in ((1.0, 1.0), (1.0, INF), (INF, INF)):
        base = martingale_factor(ST, PenalizationParams(0.0, 1.0, la, lb, 0.0), grid)
        for gamma in (-1.0, 1.0):
            other = martingale_factor(ST, PenalizationParams(0.0, 1.0, la, lb, gamma), grid)
            worst = max(worst, float(np.max(np.abs(np.asarray(other) - np.asarray(base)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(9, ok, f"stable tilt collapse, worst pointwise {worst:.2e}", "5s", elapsed)
    assert worst < 1e-10
    assert elapsed < 5.0


def test_acceptance_10_regime_continuity():
    start = time.perf_counter()
    grid = np.linspace(-3.0, 3.0, 20)
    big = 1e6
    worst_rel = 0.0
    worst_abs = 0.0
    for model in (BM, ST):
        pairs = (
            (PenalizationParams(0.0, 1.0, 1.0, big), PenalizationParams(0.0, 1.0, 1.0, INF)),
            (PenalizationParams(0.0, 1.0, big, big), PenalizationParams(0.0, 1.0, INF, INF)),
        )
        for near_p, lim_p in pairs:
            near = np.asarray(martingale_factor(model, near_p, grid))
            lim = np.asarray(martingale_factor(model, lim_p, grid))
            mask = lim > 1e-8
            if mask.any():
                worst_rel = max(worst_rel, float((np.abs(near - lim)[mask] / lim[mask]).max()))
            if (~mask).any():
                worst_abs = max(worst_abs, float(np.abs(near - lim)[~mask].max()))
    elapsed = time.perf_counter() - start
    ok = worst_rel < 1e-4 and worst_abs < 1e-5
    _report(10, ok, f"large-rate continuity: worst rel {worst_rel:.2e} "
                    f"(abs {worst_abs:.2e} where the limit vanishes)", "-", elapsed)
    assert worst_rel < 1e-4
    assert worst_abs < 1e-5


def test_acceptance_11_penalization_limit_ratios():
    start = time.perf_counter()
    params = PenalizationParams(0.0, 1.0, INF, INF, 0.0)
    x0, t = 2.0, 0.25
    functional = verify.IndicatorAbove(x0)  # median of X_t from a symmetric start
    mc = MCConfig(n_paths=10_000, master_seed=SEED,
                  grid=SimGrid(dt=0.01, horizon=6000.0), censor_budget=0.25)

    outcomes = []
    families = [
        ("exponential q->0", verify.ExponentialClockFamily(qs=(0.1, 0.01, 1e-3))),
        ("hitting c=+50", verify.HittingClockFamily(cs=(10.0, 25.0, 50.0))),
        ("two-point gamma=0", verify.TwoPointClockFamily(gamma=0.0, rs=(10.0, 50.0))),
        ("two-point gamma=+1", verify.TwoPointClockFamily(gamma=1.0, rs=(10.0, 50.0))),
        ("inverse-lt c=+50 u=1", verify.InverseLocalTimeClockFamily(cs=(10.0, 50.0), u=1.0)),
    ]
    for label, family in families:
        reports = verify.check_penalization_limit(BM, params, family, functional,
                                                  t, x0, mc)
        final = reports[-1]
        outcomes.append((label, final.passed, final.estimate, final.target))

    # blocked escape directions: the theorems presume a positive start value,
    # which continuous paths cannot provide toward -inf from above both points
    degenerate = []
    for label, family in [
        ("hitting c=-50", verify.HittingClockFamily(cs=(-10.0, -25.0, -50.0))),
        ("two-point gamma=-1", verify.TwoPointClockFamily(gamma=-1.0, rs=(10.0, 50.0))),
        ("inverse-lt c=-50", verify.InverseLocalTimeClockFamily(cs=(-10.0, -50.0), u=1.0)),
    ]:
        with pytest.raises(verify.DegenerateStartError):
            verify.check_penalization_limit(BM, params, family, functional, t, x0, mc)
        degenerate.append(label)

    elapsed = time.perf_counter() - start
    all_ok = all(p for _, p, _, _ in outcomes)
    ok = all_ok and elapsed < 1200
    detail = "; ".join(f"{lbl} lhs={e:.3f} rhs={tg:.3f} {'ok' if p else 'FAIL'}"
                       for lbl, p, e, tg in outcomes)
    _report(11, ok, detail + f"; degenerate-start verified for {degenerate}",
            "20min", elapsed)
    assert all_ok, outcomes
    assert elapsed < 1200


@pytest.fixture(scope="module")
def decay_rate_estimate():
    mc = MCConfig(n_paths=4000, master_seed=SEED,
                  grid=SimGrid(dt=2.5e-4, horizon=150.0), censor_budget=0.25)
    return estimate_decay_rate(BM, 1.0, 2.0, 0.0, 1.0, 1.0, mc)


def test_acceptance_12a_decay_rate_fit_residuals(decay_rate_estimate):
    start = time.perf_counter()
    est = decay_rate_estimate
    resid_ok = all(abs(r) < 2.0 * s for r, s in zip(est.residuals, est.log_stderrs))
    elapsed = time.perf_counter() - start
    ok = resid_ok and est.estimate > 0
    _report("12a", ok, f"decay rate {est.estimate:.4f}+-{est.stderr:.4f}, "
                       f"|residual|/2se "
                       f"{[round(abs(r)/(2*s), 3) for r, s in zip(est.residuals, est.log_stderrs)]}",
            "5min", elapsed)
    assert est.estimate > 0
    assert resid_ok, (est.residuals, est.log_stderrs)


def test_acceptance_12b_inverse_clock_martingale(decay_rate_estimate):
    """Faithful run of the stated criterion; fails structurally.

    The claimed reference process exp(L_t^c rate) * weight has mean
    1 + rate * sqrt(2 t / pi) + O(t) from x0 = c: the exponential of the
    local time at c carries a positive drift no position factor offsets.
    The measured estimates reproduce that prediction (the README's
    paragraph on this check holds the drift analysis), so this red is a
    property of the claim, not of the harness.
    """
    est = decay_rate_estimate
    start = time.perf_counter()
    mc = MCConfig(n_paths=4000, master_seed=SEED,
                  grid=SimGrid(dt=2.5e-4, horizon=1.0), censor_budget=0.25)
    reports = verify.check_inverse_clock_martingale(
        BM, 1.0, 2.0, 0.0, 1.0, 1.0, (0.1, 0.25), 0.0, mc, rate=est, tol_extra=0.05)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports)
    predicted = [1.0 + est.estimate * math.sqrt(2 * t / math.pi) for t in (0.1, 0.25)]
    detail = "; ".join(f"t={t}: est {r.estimate:.4f} vs target 1.0 "
                       f"(structural drift predicts {p:.4f})"
                       for r, t, p in zip(reports, (0.1, 0.25), predicted))
    _report("12b", ok, detail, "5min", elapsed)
    assert all(r.passed for r in reports), (
        "inverse-clock martingale comparison failed as the drift analysis "
        f"predicts: {detail}; the reference process is not a martingale "
        "(uncompensated local-time drift at the clock level; see the "
        "12b paragraph of README.md)")


def test_acceptance_13_integrability_gate():
    start = time.perf_counter()
    rejected = []
    for alpha in (1.0, 0.9):
        try:
            models.symmetric_stable(alpha)
        except ValueError:
            rejected.append(alpha)
    diag = models.check_condition_a(ST, 1.0)
    elapsed = time.perf_counter() - start
    ok = rejected == [1.0, 0.9] and diag.finite
    _report(13, ok, f"alpha {rejected} rejected; stable(1.5) kernel bound "
                    f"{diag.bound:.4f} finite", "-", elapsed)
    assert rejected == [1.0, 0.9]
    assert diag.finite


def test_acceptance_14_cli_determinism(tmp_path):
    start = time.perf_counter()
    config = """\
[model]
kind = brownian
sigma = 1.0

[params]
a = 1.0
b = -2.0
lambda_a = 1.0
lambda_b = 1.0
gamma = 0.0

[grid]
dt = 1e-3
horizon = 15.0

[mc]
n_paths = 400
seed = 97
censor_budget = 0.3

[output]
directory = out
"""
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(config)
    digests = []
    codes = []
    for sub in ("one", "two"):
        out_dir = tmp_path / sub
        codes.append(cli.main(["verify", "--config", str(cfg_file),
                               "--suite", "identities", "--out", str(out_dir)]))
        digests.append(hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest())
    elapsed = time.perf_counter() - start
    ok = digests[0] == digests[1] and codes == [0, 0]
    _report(14, ok, f"byte-identical reports {digests[0][:12]}..., exit codes {codes}",
            "-", elapsed)
    assert digests[0] == digests[1]
    assert codes == [0, 0]
