"""One round of a benchmark workload, run in a fresh interpreter.

    python3 bench/workloads.py --workload NAME --seed N [--trace]

Imports levypen from the checkout's ``src`` directory, builds the
workload's fixed list of operations from the seed, runs each one, checks
its outputs against ``oracles`` and prints one JSON line: the time of
the first operation, each operation's latency, failures and output
digest, peak resident memory and, with ``--trace``, the per-layer
metrics of ``tracing``.  ``run.py`` starts this once per round so that
every round begins with levypen's caches empty, as every ``levypen``
invocation does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import levypen  # noqa: E402
from levypen import models, penalization, resolvent, verify  # noqa: E402
from levypen.pathsim import MCConfig, SimGrid  # noqa: E402
from levypen.penalization import PenalizationParams  # noqa: E402

import oracles  # noqa: E402

INF = math.inf

# every statistical gate is |estimate - reference| <= Z * stderr + tol_extra.
# At the step sizes below the estimators read 1 to 2 standard errors low on
# average (window local time, entry-window hits) and single readings reached
# 4.7 over 24 seeds; 6 keeps a correct program passing on every seed
Z = 6.0
# h comes from a q -> 0 sequence stopped at |step| < 1e-7 (levypen's
# ZeroLimitConfig.stop_tol); the program's own cross-check allows 10x that
H_TOL = 1e-6
# quantities built from a few h values (exit probabilities, factors, the
# two-point local time)
DERIVED_TOL = 1e-5

BM = models.brownian(1.0)
ST = models.symmetric_stable(1.5)
JD = models.jump_diffusion(1.0, 1.0, 1.0, 2.0)
_JD_ORACLE = oracles.JumpDiffusion(1.0, 1.0, 1.0, 2.0)
ORACLE_H = {
    "brownian": oracles.bm_h,
    "stable": lambda x: oracles.stable_h(x, 1.5),
    "jump-diffusion": _JD_ORACLE.h,
}

A, B = 0.0, 1.0          # penalized points of the table and martingale ops
REGIMES = ((1.0, 1.0), (1.0, INF), (INF, INF))
QS = (0.1, 0.5, 1.0, 10.0)
DENSITY_XS = (5.0, -5.0, -1.0, 0.0, 1.0)
TABLE_XS = (-2.0, -1.0, 0.5, 2.0, 3.0)


def _close(problems, label, got, want, tol):
    if not (math.isfinite(got) and abs(got - want) <= tol):
        problems.append(f"{label}: got {got!r}, want {want!r} within {tol:g}")


def _within_gate(problems, label, estimate, stderr, tol_extra, want):
    gate = Z * stderr + tol_extra
    if not abs(estimate - want) <= gate:
        problems.append(f"{label}: {estimate!r} vs {want!r}, gate {gate:.4g}")


# ---------------------------------------------------------------------------
# closed-forms

def density_row(model, x):
    """r_q(x) over QS for one model and x."""
    def op():
        got = [resolvent.resolvent_density(model, q, x) for q in QS]
        problems = []
        for q, r in zip(QS, got):
            label = f"r_{q}({x})"
            if model.kind == "brownian":
                want = oracles.bm_resolvent(q, x)
                _close(problems, label, r, want, 1e-8 * want)
            elif model.kind == "jump-diffusion":
                want = _JD_ORACLE.resolvent(q, x)
                # quadrature abs_tol plus the criterion-01 relative accuracy
                _close(problems, label, r, want, 1e-10 + 1e-8 * want)
            elif x == 0.0:
                want = oracles.stable_resolvent_at_zero(q, ST.alpha)
                _close(problems, label, r, want, 1e-8 * want)
            elif not 0.0 < r < oracles.stable_resolvent_at_zero(q, ST.alpha):
                problems.append(f"{label} = {r!r} outside (0, r_q(0))")
        # r_q(x) = int e^{-qt} p_t(x) dt falls strictly as q grows
        if any(hi <= lo for hi, lo in zip(got, got[1:])):
            problems.append(f"r_q({x}) not decreasing in q: {got}")
        return got, problems
    return op


def table_row(model, x, tilt):
    """The ``levypen table`` row at x, with the factor in all three regimes."""
    h_or = ORACLE_H[model.kind]

    def op():
        h = penalization.zero_resolvent_cached_fn(model)
        hv = resolvent.zero_resolvent(model, x)
        hg = resolvent.tilted_zero_resolvent(model, tilt, x)
        phis = [penalization.martingale_factor(model, PenalizationParams(A, B, la, lb), x, h=h)
                for la, lb in REGIMES]
        p_a = penalization.prob_hit_before(model, x, A, B, h=h)
        p_b = penalization.prob_hit_before(model, x, B, A, h=h)
        problems = []
        _close(problems, f"h({x})", hv, h_or(x), H_TOL)
        shift = tilt * x / model.m2 if math.isfinite(model.m2) else 0.0
        _close(problems, f"h_gamma({x})", hg, max(h_or(x) + shift, 0.0), H_TOL)
        for (la, lb), phi in zip(REGIMES, phis):
            if not (math.isfinite(phi) and phi >= 0.0):
                problems.append(f"factor({la},{lb}) at {x} = {phi!r}")
        _close(problems, f"avoid factor({x})", phis[2], oracles.avoid_factor(h_or, x, A, B),
                DERIVED_TOL)
        if model.kind == "brownian":
            _close(problems, f"BM avoid factor({x})", phis[2], oracles.bm_avoid_factor(x, A, B),
                   DERIVED_TOL)
            if x >= B:
                # above b every path to a crosses b first, so the (1, inf)
                # factor is the avoidance factor x - b
                _close(problems, f"BM (1,inf) factor({x})", phis[1], x - B, DERIVED_TOL)
            _close(problems, f"BM ruin({x})", p_a, oracles.bm_ruin(x, A, B), DERIVED_TOL)
        _close(problems, f"P_{x}(T_a<T_b)", p_a, oracles.prob_hit_before(h_or, x, A, B),
               DERIVED_TOL)
        _close(problems, f"exit probabilities at {x} sum", p_a + p_b, 1.0, 1e-12)
        return [hv, hg, *phis, p_a, p_b], problems
    return op


def either_hit_row(model):
    """Expected local time at 0 before hitting 1 or -2."""
    def op():
        got = penalization.local_time_until_either_hit(model, 1.0, -2.0)
        problems = []
        want = oracles.local_time_until_either_hit(ORACLE_H[model.kind], 1.0, -2.0)
        _close(problems, "E[L^0 until T_1 ^ T_-2]", got, want, DERIVED_TOL)
        if model.kind == "brownian":
            # interval Green function 2 a d / (a + d) at the origin
            _close(problems, "BM two-point value", got, 2.0 * 1.0 * 2.0 / 3.0, DERIVED_TOL)
        return [got], problems
    return op


def closed_forms(seed):
    """A fixed table in a fixed order, so that every run pays the same
    quadratures in the same operations; the seed draws only the tilt.

    The first row pays the cold r_q(0) and the mpmath escalation at
    q = 10, |x| = 5.
    """
    tilt = random.Random(seed).uniform(-1.0, 1.0)
    ops = []
    for model in (BM, ST, JD):
        ops += [(f"density {model.kind} x={x}", density_row(model, x)) for x in DENSITY_XS]
        ops += [(f"table {model.kind} x={x}", table_row(model, x, tilt)) for x in TABLE_XS]
        ops.append((f"either-hit {model.kind}", either_hit_row(model)))
    return ops


# ---------------------------------------------------------------------------
# Monte Carlo checks

def _mc(seed, k, n_paths, dt, horizon):
    return MCConfig(n_paths=n_paths, master_seed=seed * 100 + k,
                    grid=SimGrid(dt=dt, horizon=horizon), z=Z, censor_budget=0.25)


def _values(reports):
    return [v for r in reports for v in (r.estimate, r.stderr, r.target, r.censored_fraction)]


def identity_op(check, args, mc, want):
    """One expected-local-time or Laplace identity against its exact value."""
    def op():
        r = getattr(verify, check)(*args, mc)
        problems = []
        if not r.passed:
            problems.append(f"check failed: {r.to_dict()}")
        _close(problems, "target", r.target, want, DERIVED_TOL)
        _within_gate(problems, "estimate", r.estimate, r.stderr, r.tol_extra, want)
        return _values([r]), problems
    return op


def mc_identities(seed):
    """Walks that stop at a detected hit or a local-time level (1000 paths,
    dt = 2.5e-4; see README for why not dt = 1e-3)."""
    jd_target = _JD_ORACLE.h(0.8) + _JD_ORACLE.h(-0.8)
    laplace = math.exp(-0.5 / oracles.bm_resolvent(1.0, 0.0))
    # the first operation exits a bounded interval, so its work hardly
    # depends on the seed and first_op_s reads the cold-start cost
    ops = [
        ("either-hit brownian 1,-2", "check_identity_local_time_until_either_hit",
         (BM, 1.0, -2.0), 20.0, 4.0 / 3.0),
        ("hit brownian a=1", "check_identity_local_time_until_hit",
         (BM, 1.0), 20.0, 2.0),
        ("hit jump-diffusion a=0.8", "check_identity_local_time_until_hit",
         (JD, 0.8), 20.0, jd_target),
        ("laplace brownian q=1 l=0.5", "check_inverse_lt_laplace",
         (BM, 1.0, 0.5), 10.0, laplace),
    ]
    return [(name, identity_op(check, args, _mc(seed, k, 1000, 2.5e-4, horizon), want))
            for k, (name, check, args, horizon, want) in enumerate(ops)]


def martingale_op(model, la, lb, mc):
    """E_2[factor(X_t) weight_t] = factor(2) at t = 0.1 and 0.5."""
    params = PenalizationParams(A, B, la, lb)
    x0 = 2.0
    if model.kind == "brownian" and not math.isfinite(lb):
        start = x0 - B          # avoidance factor above both points
    elif model.kind == "stable" and not math.isfinite(la):
        start = oracles.avoid_factor(ORACLE_H["stable"], x0, A, B)
    else:
        start = None            # no closed form kept for the finite regimes

    def op():
        reports = verify.check_martingale(model, params, (0.1, 0.5), x0, mc)
        problems = []
        for r in reports:
            if not r.passed:
                problems.append(f"{r.name} failed: estimate {r.estimate!r}, "
                                f"target {r.target!r}, stderr {r.stderr!r}")
            if not r.target > 0.0:
                problems.append(f"{r.name}: start factor {r.target!r} not positive")
            if start is not None:
                _close(problems, f"{r.name} start factor", r.target, start, DERIVED_TOL)
                _within_gate(problems, r.name, r.estimate, r.stderr, r.tol_extra, start)
        return _values(reports), problems
    return op


LIMIT_X0, LIMIT_T, LIMIT_ABOVE = 2.0, 0.25, 2.0


def limit_op(family, mc):
    """Conditioned ratio of 1{X_t > 2} against the reflection value."""
    params = PenalizationParams(A, B, INF, INF)
    want = oracles.bm_limit_reference(LIMIT_X0, B, LIMIT_T, LIMIT_ABOVE)

    def op():
        reports = verify.check_penalization_limit(
            BM, params, family, verify.IndicatorAbove(LIMIT_ABOVE), LIMIT_T, LIMIT_X0, mc)
        problems = []
        final = reports[-1]
        if not final.passed:
            problems.append(f"{final.name} failed: {final.to_dict()}")
        _within_gate(problems, f"{final.name} conditioned ratio", final.estimate,
                     final.stderr, final.tol_extra, want)
        # BM with tilt gamma has h_gamma(x) = |x| + gamma x, so above both
        # points the tilted avoidance factor is (1 + gamma)(x - b)
        start = (1.0 + family.gamma_eff) * (LIMIT_X0 - B)
        for r in reports:
            _close(problems, f"{r.name} start factor", r.metadata["reference_start"],
                   start, DERIVED_TOL)
            _within_gate(problems, f"{r.name} reference", r.target, r.stderr,
                         r.tol_extra, want)
        return _values(reports), problems
    return op


def mc_penalization(seed):
    """Long coarse walks that stop on far hits, then short snapshot walks
    with several tracked levels.  The first operation is long and its
    work hardly depends on the seed: nearly every path stops within its
    first chunk."""
    ops = []
    for family in (verify.ExponentialClockFamily(qs=(0.1, 0.01, 1e-3)),
                   verify.HittingClockFamily(cs=(10.0, 25.0, 50.0))):
        k = len(ops)
        ops.append((f"limit {type(family).__name__}",
                    limit_op(family, _mc(seed, k, 500, 0.01, 6000.0))))
    for model in (BM, ST):
        for la, lb in REGIMES:
            if model is ST and (la, lb) == (1.0, INF):
                # reads 2.7 standard errors low on average at t = 0.5 and fails
                # the program's own 3-sigma gate on some seeds (CHANGES.md FOUND)
                continue
            k = len(ops)
            ops.append((f"martingale {model.kind} ({la},{lb})",
                        martingale_op(model, la, lb, _mc(seed, k, 2000, 1e-3, 0.55))))
    return ops


WORKLOADS = {
    "closed-forms": closed_forms,
    "mc-identities": mc_identities,
    "mc-penalization": mc_penalization,
}


# ---------------------------------------------------------------------------

def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(levypen.__file__).resolve().parents:
        print(f"levypen imported from {levypen.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = WORKLOADS[args.workload](args.seed)

    first_op_at = time.monotonic()
    records = []
    for op_id, (name, fn) in enumerate(ops):
        t0 = time.perf_counter()
        try:
            with tracer.op(op_id) if tracer else contextlib.nullcontext():
                values, problems = fn()
        except Exception as exc:  # an operation that raises counts as failed
            values, problems = None, [f"{type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - t0
        records.append({"name": name, "latency_s": latency, "problems": problems,
                        "digest": _digest(values)})

    out = {
        "first_op_at": first_op_at,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(ROOT / "bench" / "out" / f"spans-{args.workload}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
