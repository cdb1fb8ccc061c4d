"""Resolvent densities and the renormalized zero resolvent by Fourier inversion.

Everything here reduces to one kernel: R(lam) = 1 / (q + psi(lam)).  The
resolvent density is its cosine/sine transform, and the renormalized zero
resolvent is the q -> 0 limit of the transform of the *difference*
kernel.  Two numerical points carry the module:

* Oscillatory tails are integrated with dedicated Fourier quadrature
  (QUADPACK's QAWF via ``scipy.integrate.quad``), never truncated blindly;
  an analytic per-model tail bound picks the finite/infinite split.
* The gap r_q(0) - r_q(-x) is computed as a single fused integral of
  ``2 R sin^2(lam x / 2)``.  Both terms diverge separately as q -> 0 in
  the recurrent case, the fused integrand stays bounded, so the zero
  limit is reached by plain evaluation along a geometric q-sequence.

Results that are provably tiny relative to the kernel scale are
re-evaluated in arbitrary precision (mpmath) because float64 Fourier
sums bottom out near 1e-11 of the integrand scale.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .models import LevyModel

__all__ = [
    "QuadratureConfig",
    "ZeroLimitConfig",
    "ResolventError",
    "QuadratureError",
    "ConvergenceError",
    "CrossCheckError",
    "ConditionAError",
    "resolvent_density",
    "resolvent_gap",
    "zero_resolvent",
    "tilted_zero_resolvent",
    "zero_resolvent_fn",
]


class ResolventError(Exception):
    """Base for numerical failures in this module."""


class QuadratureError(ResolventError):
    """Panel budget exhausted or error estimate above tolerance."""


class ConvergenceError(ResolventError):
    """The q -> 0 sequence did not stabilise within the step budget."""


class CrossCheckError(ResolventError):
    """Extrapolated limit disagrees with the symmetric direct integral."""


class ConditionAError(ResolventError):
    """Resolvent kernel not integrable for this model and q."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for a single inversion integral."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_panels: int = 400
    tail_cut: float | None = None  # finite/oscillatory split; auto when None

    def __post_init__(self):
        if not (0 < self.abs_tol < 1 and 0 < self.rel_tol < 1):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_panels < 16:
            raise ValueError("max_panels must be at least 16")
        if self.tail_cut is not None and self.tail_cut <= 0:
            raise ValueError("tail_cut must be positive")


@dataclass(frozen=True)
class ZeroLimitConfig:
    """Geometric q-sequence used to reach the q -> 0 limit of the gap."""

    q_start: float = 1.0
    q_ratio: float = 0.25
    stop_tol: float = 1e-7
    max_steps: int = 60

    def __post_init__(self):
        if not self.q_start > 0:
            raise ValueError("q_start must be positive")
        if not 0 < self.q_ratio < 1:
            raise ValueError("q_ratio must lie in (0, 1)")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if self.max_steps < 2:
            raise ValueError("max_steps must be at least 2")


_DEFAULT_QUAD = QuadratureConfig()
_DEFAULT_LIMIT = ZeroLimitConfig()

# magnitude (relative to the kernel scale) below which float64 Fourier
# quadrature cancels away; such values are recomputed in mpmath with the
# digits the cancellation costs plus _MP_DIGITS, at most _MP_DPS
_ESCALATE_REL = 1e-6
_MP_DIGITS = 10
_MP_DPS = 30

# bounds of the memo tables (entries); a miss only costs a recomputation
_R0_CACHE_SIZE = 256
_DENSITY_CACHE_SIZE = 4096
_H_CACHE_SIZE = 4096


def _kernel_parts(model: LevyModel, q: float):
    """Real and imaginary parts of 1/(q + psi); B is None for symmetric psi."""
    if model.symmetric:
        def a_part(lam):
            return 1.0 / (q + model.psi(lam))
        return a_part, None

    def a_part(lam):
        r = 1.0 / (q + model.psi(lam))
        return r.real

    def b_part(lam):
        r = 1.0 / (q + model.psi(lam))
        return r.imag

    return a_part, b_part


def _quad_checked(f, lo, hi, cfg: QuadratureConfig, *, weight=None, wvar=None, points=None):
    """scipy.integrate.quad with budget accounting and error propagation."""
    kwargs = dict(epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=cfg.max_panels,
                  full_output=1)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar, limlst=max(50, cfg.max_panels // 2))
        kwargs.pop("points", None)
    elif points:
        kwargs["points"] = points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(f, lo, hi, **kwargs)
    val, abserr = out[0], out[1]
    # QUADPACK signals trouble via a message element; tolerate it only if
    # the reported error is still acceptable for the requested tolerances
    troubled = len(out) > 3
    if troubled and abserr > 1e3 * max(cfg.abs_tol, cfg.rel_tol * abs(val)):
        raise QuadratureError(
            f"quadrature failed on [{lo}, {hi}] (weight={weight}): "
            f"value {val:.3e}, error estimate {abserr:.3e}")
    return val


def _auto_tail_cut(model: LevyModel, q: float, x: float, cfg: QuadratureConfig) -> float:
    """Split point between the adaptive panel and the Fourier tail.

    Far enough out that the analytic tail bound is below abs_tol/10 (the
    tail is still integrated, the rule just keeps it small), close enough
    in that the finite panel sees a bounded number of oscillations.
    """
    if cfg.tail_cut is not None:
        return cfg.tail_cut
    lam = 10.0
    while model.tail_bound(q, lam) > 0.1 * cfg.abs_tol * math.pi and lam < 1e8:
        lam *= 2.0
    if x != 0.0:
        # cap the oscillation count inside the finite panel
        lam = min(lam, max(10.0, 32.0 * math.pi / abs(x)))
    return lam


def _finite_point(x: float) -> None:
    # a NaN or infinite position would reach QUADPACK's weighted rules
    if not math.isfinite(x):
        raise ValueError(f"position must be finite, got {x}")


def _condition_a_guard(model: LevyModel, q: float):
    if not q > 0:
        raise ValueError("q must be positive")
    if not math.isfinite(model.tail_bound(q, 10.0)):
        raise ConditionAError(f"kernel 1/(q + psi) not integrable for {model}")


def _psi_mp(model: LevyModel, lam):
    import mpmath as mp

    if model.kind == "brownian":
        return mp.mpf(model.sigma) ** 2 * lam * lam / 2
    if model.kind == "stable":
        return mp.power(abs(lam), model.alpha)
    w = model.p_plus / (model.p_plus + model.p_minus)
    jump_cf = (w * model.p_plus / (model.p_plus - mp.mpc(0, 1) * lam)
               + (1 - w) * model.p_minus / (model.p_minus + mp.mpc(0, 1) * lam))
    return mp.mpf(model.sigma) ** 2 * lam * lam / 2 + model.jump_rate * (1 - jump_cf)


def _density_mp(model: LevyModel, q: float, x: float, dps: int) -> float:
    """Arbitrary-precision fallback for deeply cancelled transforms."""
    import mpmath as mp

    with mp.workdps(dps):
        w = mp.mpf(abs(x))
        period = 2 * mp.pi / w

        def a_cos(lam):
            return mp.re(1 / (q + _psi_mp(model, lam))) * mp.cos(lam * w)

        val = mp.quadosc(a_cos, [0, mp.inf], period=period)
        if not model.symmetric:
            def b_sin(lam):
                return mp.im(1 / (q + _psi_mp(model, lam))) * mp.sin(lam * w)
            val += math.copysign(1.0, x) * mp.quadosc(b_sin, [0, mp.inf], period=period)
        return float(val / mp.pi)


@functools.lru_cache(maxsize=_R0_CACHE_SIZE)
def _r0(model: LevyModel, q: float, cfg: QuadratureConfig) -> float:
    """r_q(0), memoized: it is both an output and the escalation scale."""
    a_part, _ = _kernel_parts(model, q)
    scale = model.small_freq_scale(q)
    cut = max(10.0, 64.0 * scale)
    body = _quad_checked(a_part, 0.0, cut, cfg,
                         points=[p for p in (0.5 * scale, scale, 4 * scale, 16 * scale)
                                 if 0 < p < cut])
    tail = _quad_checked(a_part, cut, np.inf, cfg)
    return (body + tail) / math.pi


def resolvent_density(model: LevyModel, q: float, x: float,
                      cfg: QuadratureConfig | None = None) -> float:
    """q-resolvent density r_q(x) = (1/pi) Re int_0^inf e^{-i lam x} / (q + psi) dlam.

    Nonnegative, maximal at x = 0.  Raises :class:`QuadratureError` when
    the panel budget cannot reach the requested tolerance and
    :class:`ConditionAError` when the kernel is not integrable.
    """
    cfg = cfg or _DEFAULT_QUAD
    _finite_point(x)
    _condition_a_guard(model, q)
    if x == 0.0:
        return _r0(model, q, cfg)
    # r_q is even for symmetric models: one entry serves x and -x
    return _density(model, q, abs(x) if model.symmetric else x, cfg)


@functools.lru_cache(maxsize=_DENSITY_CACHE_SIZE)
def _density(model: LevyModel, q: float, x: float, cfg: QuadratureConfig) -> float:
    """r_q(x) for x != 0 by weighted Fourier quadrature, escalated when tiny."""
    r0 = _r0(model, q, cfg)
    a_part, b_part = _kernel_parts(model, q)
    ax = abs(x)
    val = _quad_checked(a_part, 0.0, np.inf, cfg, weight="cos", wvar=ax)
    if b_part is not None:
        val += math.copysign(1.0, x) * _quad_checked(b_part, 0.0, np.inf, cfg,
                                                     weight="sin", wvar=ax)
    val /= math.pi
    if abs(val) < _ESCALATE_REL * r0:
        # below the float64 cancellation floor of the Fourier sum
        lost = math.log10(r0 / max(abs(val), 1e-20 * r0))
        val = _density_mp(model, q, x, min(_MP_DPS, _MP_DIGITS + math.ceil(lost)))
    return max(val, 0.0)


def resolvent_gap(model: LevyModel, q: float, x: float,
                  cfg: QuadratureConfig | None = None) -> float:
    """Fused evaluation of r_q(0) - r_q(-x), nonnegative.

    Computed as (1/pi) int_0^inf Re[(1 - e^{i lam x}) / (q + psi)] dlam
    in one pass: subtracting two densities would cancel catastrophically
    because r_q(0) diverges as q -> 0 for recurrent models.  The panel
    list forces subdivision at the q-dependent scale so the small-q
    feature near lam = 0 is never skipped.
    """
    cfg = cfg or _DEFAULT_QUAD
    _finite_point(x)
    _condition_a_guard(model, q)
    if x == 0.0:
        return 0.0
    a_part, b_part = _kernel_parts(model, q)
    ax = abs(x)
    cut = _auto_tail_cut(model, q, x, cfg)
    scale = model.small_freq_scale(q)
    pts = [p for p in (0.5 * scale, scale, 4 * scale, 16 * scale) if 0 < p < 0.9 * cut]

    if b_part is None:
        def fused(lam):
            s = math.sin(0.5 * lam * x)
            return 2.0 * s * s * a_part(lam)
    else:
        def fused(lam):
            s = math.sin(0.5 * lam * x)
            return 2.0 * s * s * a_part(lam) + math.sin(lam * x) * b_part(lam)

    body = _quad_checked(fused, 0.0, cut, cfg, points=pts)
    flat_tail = _quad_checked(a_part, cut, np.inf, cfg)
    cos_tail = _quad_checked(a_part, cut, np.inf, cfg, weight="cos", wvar=ax)
    val = body + flat_tail - cos_tail
    if b_part is not None:
        val += math.copysign(1.0, x) * _quad_checked(b_part, cut, np.inf, cfg,
                                                     weight="sin", wvar=ax)
    val /= math.pi
    if val < -1e-9:
        raise QuadratureError(f"gap integral returned {val:.3e} < 0 at q={q}, x={x}")
    return max(val, 0.0)


def _direct_symmetric_limit(model: LevyModel, x: float, cfg: QuadratureConfig) -> float:
    """q = 0 gap integral (symmetric models only): (1/pi) int (1 - cos lam x)/psi."""
    ax = abs(x)
    cut = _auto_tail_cut(model, 1e-8, x, cfg)

    def fused(lam):
        s = math.sin(0.5 * lam * ax)
        return 2.0 * s * s / model.psi(lam)

    def flat(lam):
        return 1.0 / model.psi(lam)

    body = _quad_checked(fused, 0.0, cut, cfg)
    flat_tail = _quad_checked(flat, cut, np.inf, cfg)
    cos_tail = _quad_checked(flat, cut, np.inf, cfg, weight="cos", wvar=ax)
    return (body + flat_tail - cos_tail) / math.pi


def zero_resolvent(model: LevyModel, x: float,
                   cfg: QuadratureConfig | None = None,
                   ext: ZeroLimitConfig | None = None) -> float:
    """Renormalized zero resolvent h(x) = lim_{q -> 0+} [r_q(0) - r_q(-x)].

    The limit exists and is finite for every model in the catalogue; it
    is reached along the geometric sequence q_k = q_start * q_ratio^k,
    stopping when two successive gap values differ by less than
    ``stop_tol``.  For symmetric models the result is cross-checked
    against the direct q = 0 integral and must agree within
    ``10 * stop_tol``; no independent oracle exists for asymmetric
    models, which downstream reports flag.
    """
    _finite_point(x)
    if x == 0.0:
        return 0.0
    return _zero_resolvent(model, x, cfg or _DEFAULT_QUAD, ext or _DEFAULT_LIMIT)


@functools.lru_cache(maxsize=_H_CACHE_SIZE)
def _zero_resolvent(model: LevyModel, x: float, cfg: QuadratureConfig,
                    ext: ZeroLimitConfig) -> float:
    q = ext.q_start
    prev = None
    val = None
    for _ in range(ext.max_steps):
        cur = resolvent_gap(model, q, x, cfg)
        if prev is not None and abs(cur - prev) < ext.stop_tol:
            val = cur
            break
        prev = cur
        q *= ext.q_ratio
    if val is None:
        raise ConvergenceError(
            f"gap sequence did not stabilise within {ext.max_steps} steps at x={x}")
    if model.symmetric:
        direct = _direct_symmetric_limit(model, x, cfg)
        if abs(val - direct) > 10.0 * ext.stop_tol:
            raise CrossCheckError(
                f"extrapolated limit {val:.10f} vs direct integral {direct:.10f} at x={x}")
    return val


def tilted_zero_resolvent(model: LevyModel, gamma: float, x: float,
                          cfg: QuadratureConfig | None = None,
                          ext: ZeroLimitConfig | None = None) -> float:
    """Directionally tilted zero resolvent h(x) + gamma * x / m2.

    The tilt vanishes identically when the second moment is infinite.
    Nonnegative for gamma in [-1, 1]; where the sum is an exact zero
    (Brownian h(x) = -gamma x / m2) the extrapolated limit leaves noise
    of the order of stop_tol, clamped to zero within that allowance.
    """
    if not -1.0 <= gamma <= 1.0:
        raise ValueError(f"tilt must lie in [-1, 1], got {gamma}")
    ext = ext or _DEFAULT_LIMIT
    val = zero_resolvent(model, x, cfg, ext)
    if gamma != 0.0 and math.isfinite(model.m2):
        val = val + gamma * x / model.m2
    if val < -10.0 * ext.stop_tol:
        raise QuadratureError(f"tilted zero resolvent {val:.3e} < 0 at x={x}")
    return max(val, 0.0)


def zero_resolvent_fn(model: LevyModel,
                      cfg: QuadratureConfig | None = None,
                      ext: ZeroLimitConfig | None = None):
    """Vectorized evaluator for the zero resolvent of a fixed model.

    Uses the exact closed form for Brownian motion (|x| / sigma^2), the
    self-similar scaling h(x) = h(1) |x|^(alpha-1) for stable models
    (anchor computed once by the quadrature path), and the memoized
    pointwise :func:`zero_resolvent` otherwise.  Agreement with :func:`zero_resolvent`
    is part of the test suite; Monte Carlo checks rely on this evaluator
    because they evaluate h at every sampled path position.
    """
    if model.kind == "brownian":
        inv_var = 1.0 / model.sigma**2

        def fn(xs):
            return np.abs(np.asarray(xs, dtype=float)) * inv_var
        return fn

    if model.kind == "stable":
        anchor = zero_resolvent(model, 1.0, cfg, ext)
        power = model.alpha - 1.0

        def fn(xs):
            return anchor * np.abs(np.asarray(xs, dtype=float)) ** power
        return fn

    def fn(xs):
        arr = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.empty_like(arr)
        for i, v in enumerate(arr.ravel()):
            out.ravel()[i] = zero_resolvent(model, float(v), cfg, ext)
        return out if np.ndim(xs) else float(out[0])

    return fn
