"""Exact resolvent densities, the renormalized zero resolvent, and their references.

Everything here reduces to one kernel: R(lam) = 1 / (q + psi(lam)).  The
resolvent density is its cosine/sine transform, and the renormalized zero
resolvent h is the q -> 0 limit of the transform of the *difference*
kernel.  Every model in the catalogue has both in exact form:
:func:`resolvent_density` (closed forms, residues, and a fixed
double-exponential rule on a rotated contour for the stable model) and
:func:`zero_resolvent` (closed forms).  Fourier quadrature is kept as the
tested reference of each, :func:`resolvent_density_quad` and
:func:`zero_resolvent_quad`; it is the only user of scipy and mpmath,
which are imported on first use.  Two numerical points carry the
quadrature:

* Oscillatory tails are integrated with dedicated Fourier quadrature
  (QUADPACK's QAWF via ``scipy.integrate.quad``), never truncated blindly;
  an analytic per-model tail bound picks the finite/infinite split.
* The gap r_q(0) - r_q(-x) is computed as a single fused integral of
  ``2 R sin^2(lam x / 2)``.  Both terms diverge separately as q -> 0 in
  the recurrent case, the fused integrand stays bounded, so the zero
  limit is reached by plain evaluation along a geometric q-sequence.

A density below 1e-3 of r_q(0) is re-evaluated in arbitrary precision
(mpmath): the float64 Fourier sum holds only an absolute tolerance there
and bottoms out near 1e-11 of r_q(0).
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .models import LevyModel

__all__ = [
    "ResolventError",
    "QuadratureError",
    "ConvergenceError",
    "CrossCheckError",
    "resolvent_density",
    "resolvent_density_quad",
    "resolvent_gap",
    "zero_resolvent",
    "zero_resolvent_quad",
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


# tolerances and panel budget of one inversion integral
_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_PANELS = 400

# geometric q-sequence to the q -> 0 limit of the gap: q_k = _Q_START *
# _Q_RATIO^k, stopped when two successive gaps differ by less than _STOP_TOL
_Q_START = 1.0
_Q_RATIO = 0.25
_STOP_TOL = 1e-7
_MAX_STEPS = 60

# magnitude (relative to r_q(0)) below which float64 Fourier quadrature,
# held to _ABS_TOL, loses relative accuracy; such values are recomputed in
# mpmath with the digits the cancellation costs plus _MP_DIGITS, at most
# _MP_DPS.  Below _NOISE_REL of r_q(0) the float64 value is itself noise
# and cannot tell the digits the cancellation costs, so _MP_DPS are used
_ESCALATE_REL = 1e-3
_NOISE_REL = 1e-11
_MP_DIGITS = 10
_MP_DPS = 30

# bounds of the memo tables (entries); a miss only costs a recomputation
_R0_CACHE_SIZE = 256
_DENSITY_CACHE_SIZE = 4096
_H_CACHE_SIZE = 4096
_H_FN_CACHE_SIZE = 64   # h evaluators, one per model
_ROOTS_CACHE_SIZE = 256


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


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    scipy is needed only by the quadrature references, so importing
    levypen does not load it.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _quad_checked(f, lo, hi, *, weight=None, wvar=None, points=None):
    """scipy.integrate.quad with budget accounting and error propagation."""
    from scipy.integrate import IntegrationWarning

    kwargs = dict(epsabs=_ABS_TOL, epsrel=_REL_TOL, limit=_MAX_PANELS, full_output=1)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar, limlst=max(50, _MAX_PANELS // 2))
    elif points:
        kwargs["points"] = points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(f, lo, hi, **kwargs)
    val, abserr = out[0], out[1]
    # QUADPACK signals trouble via a message element; tolerate it only if
    # the reported error is still acceptable for the requested tolerances
    troubled = len(out) > 3
    if troubled and abserr > 1e3 * max(_ABS_TOL, _REL_TOL * abs(val)):
        raise QuadratureError(
            f"quadrature failed on [{lo}, {hi}] (weight={weight}): "
            f"value {val:.3e}, error estimate {abserr:.3e}")
    return val


def _auto_tail_cut(model: LevyModel, q: float, x: float) -> float:
    """Split point between the adaptive panel and the Fourier tail.

    Far enough out that the analytic tail bound is below _ABS_TOL/10 (the
    tail is still integrated, the rule just keeps it small), close enough
    in that the finite panel sees a bounded number of oscillations.
    """
    lam = 10.0
    while model.tail_bound(q, lam) > 0.1 * _ABS_TOL * math.pi and lam < 1e8:
        lam *= 2.0
    if x != 0.0:
        # cap the oscillation count inside the finite panel
        lam = min(lam, max(10.0, 32.0 * math.pi / abs(x)))
    return lam


def _finite_point(*xs: float) -> None:
    # a NaN or infinite position would reach QUADPACK's weighted rules
    if not all(math.isfinite(x) for x in xs):
        raise ValueError(f"positions must be finite, got {', '.join(map(str, xs))}")


def _positive_q(q: float) -> None:
    if not (q > 0 and math.isfinite(q)):
        raise ValueError("q must be positive and finite")


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
        # quadosc alone on [0, inf) misses the kernel's feature near lam = 0
        # (1e-6 relative on stable(1.2) at 16 digits): the head up to a
        # multiple of the half period past 8 kernel scales is split there
        scale = model.small_freq_scale(q)
        head = mp.pi / w * math.ceil(8 * scale * w / mp.pi)
        pts = [0] + [scale * 2**k for k in range(-3, 4) if scale * 2**k < head] + [head]

        def transform(f):
            return mp.quad(f, pts) + mp.quadosc(f, [head, mp.inf], omega=w)

        val = transform(lambda lam: mp.re(1 / (q + _psi_mp(model, lam))) * mp.cos(lam * w))
        if not model.symmetric:
            val += math.copysign(1.0, x) * transform(
                lambda lam: mp.im(1 / (q + _psi_mp(model, lam))) * mp.sin(lam * w))
        return float(val / mp.pi)


@functools.lru_cache(maxsize=_R0_CACHE_SIZE)
def _r0(model: LevyModel, q: float) -> float:
    """r_q(0), memoized: it is both an output and the escalation scale."""
    a_part, _ = _kernel_parts(model, q)
    scale = model.small_freq_scale(q)
    cut = max(10.0, 64.0 * scale)
    body = _quad_checked(a_part, 0.0, cut,
                         points=[p for p in (0.5 * scale, scale, 4 * scale, 16 * scale)
                                 if 0 < p < cut])
    tail = _quad_checked(a_part, cut, np.inf)
    return (body + tail) / math.pi


def _de_nodes():
    """Nodes and weights of the stable density's fixed double-exponential rule.

    In units t = u / q^(1/alpha): tanh-sinh on [0, 1] and on [1, 2],
    which cluster at the near-pole t = 1 (sharp as alpha -> 2), and
    exp-sinh nodes e on (0, inf), placed at t = 2 + span * e by the
    caller to follow the decay e^{-y t}.  Step 1/32; the tanh-sinh range
    |k| <= 3.19 ends where the weights are 1e-15 of their peak, the
    exp-sinh range -5 <= j <= 3.59 puts e from 1e-50 to 2.5e12.
    """
    step = 1.0 / 32.0
    k = np.arange(-102, 103) * step
    p = 0.5 * math.pi * np.sinh(k)
    ts_t = 1.0 / (1.0 + np.exp(-2.0 * p))
    ts_w = step * 0.25 * math.pi * np.cosh(k) / np.cosh(p) ** 2
    j = np.arange(-160, 116) * step
    es_t = np.exp(0.5 * math.pi * np.sinh(j))
    es_w = step * 0.5 * math.pi * np.cosh(j) * es_t
    return np.concatenate((ts_t, 1.0 + ts_t)), np.concatenate((ts_w, ts_w)), es_t, es_w


_DE_FIXED_T, _DE_FIXED_W, _ES_T, _ES_W = _de_nodes()


def _brownian_density(sigma: float, q: float, x: float) -> float:
    s = math.sqrt(2.0 * q)
    return math.exp(-s * abs(x) / sigma) / (sigma * s)


def _stable_density(alpha: float, q: float, x: float) -> float:
    """r_q(x) = q^(1/alpha - 1) F(q^(1/alpha) |x|) for psi = |lam|^alpha, 1 < alpha < 2.

    F(0) = 1 / (alpha sin(pi / alpha)).  For y > 0 the Fourier integral
    is turned onto lam = i u, where 1/(q + lam^alpha) has no pole in
    between (the poles have argument pi / alpha > pi / 2):

        F(y) = (sin th / pi) int_0^inf e^{-y t} t^alpha / ((t^alpha + cos th)^2 + sin^2 th) dt,

    th = pi alpha / 2, a positive integrand without oscillation; the
    denominator is a sum of squares, so it keeps its digits at the
    near-pole t = 1.  The fixed double-exponential rule covers
    1e-10 <= y <= 1e3.  Outside, the integral's own expansions take over:
    F(y) = F(0) - C y^(alpha-1) + O(y), with C the coefficient of the
    closed-form h, below, and Watson's lemma on the series
    t^alpha / (1 + 2 cos th t^alpha + t^(2 alpha)) = sum_m (-1)^(m-1)
    sin(m th) / sin th t^(m alpha) above.
    """
    scale = q ** (1.0 / alpha)
    f0 = 1.0 / (alpha * math.sin(math.pi / alpha))
    y = scale * abs(x)
    th = 0.5 * math.pi * alpha
    if y == 0.0:
        val = f0
    elif y < 1e-10:
        val = f0 - y ** (alpha - 1.0) / (2.0 * math.gamma(alpha)
                                         * math.sin(0.5 * math.pi * (alpha - 1.0)))
    elif y > 1e3:
        val = sum((-1) ** (m - 1) * math.sin(m * th) * math.gamma(m * alpha + 1.0)
                  * y ** (-m * alpha - 1.0) for m in range(1, 6)) / math.pi
    else:
        c, s = math.cos(th), math.sin(th)
        # the larger of the decay length 1/y and the geometric mean
        # 1/sqrt(y) of the two scales, so that small y still sees t ~ 1
        span = 1.0 / max(y, math.sqrt(y))
        t = np.concatenate((_DE_FIXED_T, 2.0 + span * _ES_T))
        w = np.concatenate((_DE_FIXED_W, span * _ES_W))
        ta = t**alpha
        val = s / math.pi * float(np.dot(w, np.exp(-y * t) * ta / ((ta + c) ** 2 + s * s)))
    return scale / q * val


@functools.lru_cache(maxsize=_ROOTS_CACHE_SIZE)
def _jump_diffusion_poles(model: LevyModel, q: float):
    """Roots b_k of P and their residue weights D(b_k) / P'(b_k), ascending.

    q + psi(-i b) = -P(b) / D(b) with D(b) = (p+ - b)(p- + b) and
    P(b) = (sigma^2 b^2 / 2 - q) D(b) + rate b^2, a quartic with one root
    in each of (-inf, -p-), (-p-, 0), (0, p+) and (p+, inf).
    """
    d_poly = np.array([-1.0, model.p_plus - model.p_minus, model.p_plus * model.p_minus])
    p_poly = np.polyadd(np.polymul([0.5 * model.sigma**2, 0.0, -q], d_poly),
                        [model.jump_rate, 0.0, 0.0])
    roots = np.sort(np.roots(p_poly).real)
    weights = np.polyval(d_poly, roots) / np.polyval(np.polyder(p_poly), roots)
    return roots, weights


def _jump_diffusion_density(model: LevyModel, q: float, x: float) -> float:
    """Residues at the two roots on the side where e^{-b x} decays."""
    roots, weights = _jump_diffusion_poles(model, q)
    if x >= 0.0:
        return float(np.dot(weights[2:], np.exp(-roots[2:] * x)))
    return -float(np.dot(weights[:2], np.exp(-roots[:2] * x)))


def resolvent_density(model: LevyModel, q: float, x: float) -> float:
    """q-resolvent density r_q(x) = (1/pi) Re int_0^inf e^{-i lam x} / (q + psi) dlam, exact.

    * Brownian motion: exp(-sqrt(2q)|x| / sigma) / (sigma sqrt(2q)); also
      stable(2) (sigma = sqrt 2) and a jump diffusion without jumps.
    * Symmetric stable: q^(1/alpha - 1) / (alpha sin(pi / alpha)) at
      x = 0, a fixed double-exponential rule on the rotated contour
      elsewhere (see :func:`_stable_density`); within 3e-13 relative of
      30-digit arithmetic for alpha in [1.2, 1.999] and 1.2e-11 down to
      alpha = 1.01, for q^(1/alpha)|x| from 1e-20 to 1e8.
    * Jump diffusion: residues at the real roots b of P (see
      :func:`_jump_diffusion_poles`): the sum of D(b)/P'(b) e^{-b x} over
      b > 0 for x >= 0, minus the sum over b < 0 for x < 0.

    :func:`resolvent_density_quad` is the Fourier-quadrature reference
    the test suite checks these forms against.
    """
    _finite_point(x)
    _positive_q(q)
    if model.kind == "stable" and model.alpha < 2.0:
        return _stable_density(model.alpha, q, x)
    if model.kind == "jump-diffusion" and model.jump_rate > 0.0:
        return _jump_diffusion_density(model, q, x)
    return _brownian_density(model.gaussian_sigma, q, x)


def resolvent_density_quad(model: LevyModel, q: float, x: float) -> float:
    """r_q(x) by Fourier quadrature, the reference of :func:`resolvent_density`.

    Nonnegative, maximal at x = 0.  Raises :class:`QuadratureError` when
    the panel budget cannot reach the requested tolerance.
    """
    _finite_point(x)
    _positive_q(q)
    if x == 0.0:
        return _r0(model, q)
    # r_q is even for symmetric models: one entry serves x and -x
    return _density(model, q, abs(x) if model.symmetric else x)


@functools.lru_cache(maxsize=_DENSITY_CACHE_SIZE)
def _density(model: LevyModel, q: float, x: float) -> float:
    """r_q(x) for x != 0 by weighted Fourier quadrature, escalated when tiny."""
    r0 = _r0(model, q)
    a_part, b_part = _kernel_parts(model, q)
    ax = abs(x)
    val = _quad_checked(a_part, 0.0, np.inf, weight="cos", wvar=ax)
    if b_part is not None:
        val += math.copysign(1.0, x) * _quad_checked(b_part, 0.0, np.inf,
                                                     weight="sin", wvar=ax)
    val /= math.pi
    if abs(val) < _ESCALATE_REL * r0:
        # below the float64 cancellation floor of the Fourier sum
        dps = _MP_DPS
        if abs(val) >= _NOISE_REL * r0:
            dps = min(_MP_DPS, _MP_DIGITS + math.ceil(math.log10(r0 / abs(val))))
        val = _density_mp(model, q, x, dps)
    return max(val, 0.0)


def resolvent_gap(model: LevyModel, q: float, x: float) -> float:
    """Fused evaluation of r_q(0) - r_q(-x), nonnegative.

    Computed as (1/pi) int_0^inf Re[(1 - e^{i lam x}) / (q + psi)] dlam
    in one pass: subtracting two densities would cancel catastrophically
    because r_q(0) diverges as q -> 0 for recurrent models.  The panel
    list forces subdivision at the q-dependent scale so the small-q
    feature near lam = 0 is never skipped.
    """
    _finite_point(x)
    _positive_q(q)
    if x == 0.0:
        return 0.0
    a_part, b_part = _kernel_parts(model, q)
    ax = abs(x)
    cut = _auto_tail_cut(model, q, x)
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

    body = _quad_checked(fused, 0.0, cut, points=pts)
    flat_tail = _quad_checked(a_part, cut, np.inf)
    cos_tail = _quad_checked(a_part, cut, np.inf, weight="cos", wvar=ax)
    val = body + flat_tail - cos_tail
    if b_part is not None:
        val += math.copysign(1.0, x) * _quad_checked(b_part, cut, np.inf,
                                                     weight="sin", wvar=ax)
    val /= math.pi
    if val < -1e-9:
        raise QuadratureError(f"gap integral returned {val:.3e} < 0 at q={q}, x={x}")
    return max(val, 0.0)


def _direct_symmetric_limit(model: LevyModel, x: float) -> float:
    """q = 0 gap integral (symmetric models only): (1/pi) int (1 - cos lam x)/psi."""
    ax = abs(x)
    cut = _auto_tail_cut(model, 1e-8, x)

    def fused(lam):
        s = math.sin(0.5 * lam * ax)
        return 2.0 * s * s / model.psi(lam)

    def flat(lam):
        return 1.0 / model.psi(lam)

    body = _quad_checked(fused, 0.0, cut)
    flat_tail = _quad_checked(flat, cut, np.inf)
    cos_tail = _quad_checked(flat, cut, np.inf, weight="cos", wvar=ax)
    return (body + flat_tail - cos_tail) / math.pi


def zero_resolvent_quad(model: LevyModel, x: float) -> float:
    """Zero resolvent h(x) = lim_{q -> 0+} [r_q(0) - r_q(-x)] by quadrature.

    The reference that the closed forms of :func:`zero_resolvent` are
    tested against.  The limit is reached along the geometric sequence
    q_k = 0.25^k, stopping when two successive gap values differ by less
    than 1e-7.  For symmetric models the result is cross-checked against
    the direct q = 0 integral and must agree within 1e-6.
    """
    _finite_point(x)
    if x == 0.0:
        return 0.0
    return _zero_resolvent_quad(model, x)


@functools.lru_cache(maxsize=_H_CACHE_SIZE)
def _zero_resolvent_quad(model: LevyModel, x: float) -> float:
    q = _Q_START
    prev = None
    val = None
    for _ in range(_MAX_STEPS):
        cur = resolvent_gap(model, q, x)
        if prev is not None and abs(cur - prev) < _STOP_TOL:
            val = cur
            break
        prev = cur
        q *= _Q_RATIO
    if val is None:
        raise ConvergenceError(
            f"gap sequence did not stabilise within {_MAX_STEPS} steps at x={x}")
    if model.symmetric:
        direct = _direct_symmetric_limit(model, x)
        if abs(val - direct) > 10.0 * _STOP_TOL:
            raise CrossCheckError(
                f"extrapolated limit {val:.10f} vs direct integral {direct:.10f} at x={x}")
    return val


# the closed form behind zero_resolvent_fn, per model kind, as reports name it
H_CLOSED_FORM = {
    "brownian": "closed form |x| / sigma^2",
    "stable": "closed form |x|^(alpha-1) / (2 Gamma(alpha) sin(pi (alpha-1) / 2))",
    "jump-diffusion": "closed form by residues at the imaginary roots of Q",
}


@functools.lru_cache(maxsize=_H_FN_CACHE_SIZE)
def zero_resolvent_fn(model: LevyModel):
    """The one evaluator of h: vectorized closed form for a model, built once per model.

    * Brownian motion: h(x) = |x| / sigma^2.
    * Symmetric stable: h(x) = |x|^(alpha-1) / (2 Gamma(alpha) sin(pi (alpha-1) / 2)).
    * Jump diffusion: psi = lam^2 Q / D with D = (p+ - i lam)(p- + i lam)
      and Q = sigma^2 D / 2 + rate, so 1/psi is rational and h is the
      half-residue |x| / m2 of the pole at 0 plus the residue at the
      root i s of Q on the side where e^{i lam x} decays (Kou & Wang,
      2003).  s solves s^2 + (p+ - p-) s - (p+ p- + 2 rate / sigma^2) = 0
      and has the sign of x; ``expm1`` keeps full relative accuracy as
      x -> 0.

    Accepts a scalar or an array.  :func:`zero_resolvent_quad` is the
    reference the test suite checks these forms against.
    """
    if model.kind == "brownian":
        inv_var = 1.0 / model.sigma**2

        def fn(xs):
            return np.abs(np.asarray(xs, dtype=float)) * inv_var
        return fn

    if model.kind == "stable":
        a = model.alpha
        coef = 1.0 / (2.0 * math.gamma(a) * math.sin(0.5 * math.pi * (a - 1.0)))

        def fn(xs):
            return coef * np.abs(np.asarray(xs, dtype=float)) ** (a - 1.0)
        return fn

    pp, pm, var = model.p_plus, model.p_minus, model.sigma**2
    c1 = pp - pm
    c0 = pp * pm + 2.0 * model.jump_rate / var
    # the two real roots have product -c0 < 0; this form cancels in neither
    t = -0.5 * (c1 + math.copysign(math.sqrt(c1 * c1 + 4.0 * c0), c1))
    s_lo, s_hi = sorted((t, -c0 / t))

    def weight(s):
        # sgn(x) (p+ + s)(p- - s) / (sigma^2 s^2 (p+ - p- + 2 s) / 2), where sgn(x) = sgn(s)
        w = (pp + s) * (pm - s) / (0.5 * var * s * s * (c1 + 2.0 * s))
        return w if s > 0 else -w

    w_lo, w_hi = weight(s_lo), weight(s_hi)
    inv_m2 = 1.0 / model.m2

    def fn(xs):
        x = np.asarray(xs, dtype=float)
        pos = x > 0.0
        return (np.abs(x) * inv_m2
                + np.where(pos, w_hi, w_lo) * np.expm1(-np.where(pos, s_hi, s_lo) * x))
    return fn


def zero_resolvent(model: LevyModel, x: float) -> float:
    """Renormalized zero resolvent h(x) = lim_{q -> 0+} [r_q(0) - r_q(-x)].

    Closed form for every model in the catalogue; see
    :func:`zero_resolvent_fn`.
    """
    _finite_point(x)
    return float(zero_resolvent_fn(model)(x))


def tilted_zero_resolvent(model: LevyModel, gamma: float, x):
    """Directionally tilted zero resolvent h(x) + gamma * x / m2.

    The tilt vanishes identically when the second moment is infinite.
    Nonnegative for gamma in [-1, 1]; where the tilted sum is an exact
    zero (Brownian h(x) = -gamma x / m2) rounding can leave a negative of
    a few ulps of |x|, clamped to zero; a larger negative raises
    :class:`ResolventError`.  Accepts a scalar or an array.
    """
    xs = np.asarray(x, dtype=float)
    return _tilt(model, gamma, xs, zero_resolvent_fn(model)(xs))


def _tilt(model: LevyModel, gamma: float, xs: np.ndarray, val):
    """h(xs) + gamma * xs / m2 from the values ``val`` = h(xs), checked and clamped.

    The one tilt step of :func:`tilted_zero_resolvent`, for callers that
    already hold h at the positions; h is deterministic, so the result is
    the same bits.
    """
    if not -1.0 <= gamma <= 1.0:
        raise ValueError(f"tilt must lie in [-1, 1], got {gamma}")
    # math.isfinite keeps the 0-d calls (two per martingale_factor, table rows) cheap
    if not (math.isfinite(xs) if xs.ndim == 0 else np.isfinite(xs).all()):
        raise ValueError(f"position must be finite, got {xs}")
    if gamma != 0.0 and math.isfinite(model.m2):
        val = val + gamma * xs / model.m2
        if np.minimum.reduce(val, axis=None, initial=0.0) < 0.0:
            if np.any(val < -1e-12 * (1.0 + np.abs(xs))):
                raise ResolventError(f"tilted zero resolvent {val.min():.3e} < 0 at x={xs}")
            val = np.maximum(val, 0.0)
    return float(val) if val.ndim == 0 else val
