"""Alpha-stable laws: parameters, characteristic functions, sampling, CDF.

Parametrization
---------------
A law is described by ``StableParams(alpha, beta, dispersion, location)``.
``dispersion`` is the coefficient of ``|t|**alpha`` in the characteristic
exponent (i.e. scale**alpha, not the scale itself), so that

* summing k iid copies adds dispersions,
* scaling a variable by ``c`` multiplies the dispersion by ``c**alpha``.

Branches of the characteristic function, chosen exactly by alpha:

* ``alpha == 2``:  exp(-dispersion * t**2 / 2 + i*location*t).  Dispersion is
  the plain variance here; dispersion 1 means the standard normal, not N(0,2).
* ``alpha == 1``:  exp(-dispersion*|t| * (1 + i*beta*sgn(t)*(2/pi)*log|t|)
  + i*location*t).
* otherwise:       exp(-dispersion*|t|**alpha * (1 - i*beta*sgn(t)
  * tan(pi*alpha/2)) + i*location*t).

``beta`` has no effect at alpha == 2 and is kept only for bookkeeping.

Sampling
--------
``sample`` draws alpha == 2 as normal variates and every other law by the
Chambers-Mallows-Stuck (1976) transform of one uniform angle and one
exponential.  Its sines and cosines all come from numpy's ``tan``, which
numpy runs as an AVX-512 loop several times faster than its scalar ``sin``
and ``cos`` (on an AVX2 host ``tan`` is scalar too, and a draw costs about
5-8% more than through ``sin`` and ``cos``): ``_sin`` takes sin(a),
|a| <= pi, as 2u / (1 + u^2) with u = tan(a/2), and ``_cos`` takes cos(phi),
|phi| <= pi/2, as the sine of pi/2 - |phi|, with pi/2 in two parts, so that
the difference is accurate to an ulp next to |phi| = pi/2, where the heavy
tail comes from.  For alpha in [0.3, 1.9] and alpha != 1 the draws are
within a median of 1 to 2 ulp and at most 14 ulp of 40-digit arithmetic on
the same angles (the C library's sine and cosine: 1 and 7).  They differ
from the transform on the C library's sine and cosine by at most about
2.5e-15 relative for alpha >= 0.3, and by 1.5e-14 at alpha = 0.05, where
the powers 1/alpha and (1 - alpha)/alpha carry the cosines' rounding.

CDF
---
``cdf`` evaluates a whole array of x in one vectorized kernel; only the
quadrature runs in blocks of ``_CHUNK`` points.  Every point gets the same
arithmetic, which does not depend on the other points, so an array gives bit
for bit the values of a loop of scalar calls.

* alpha == 2 is ``0.5*erfc((location - x)/sqrt(2*dispersion))`` with the C
  library's ``erfc`` (``math.erfc``) at each point; alpha == 1
  with |beta| < 1e-6 is the Cauchy arctangent plus its first-order term in
  beta, -beta (2/pi^2) Re[(euler_gamma + log(1 + iz)) / (1 + iz)].
* Every other law is standardized to the S1 law of unit scale and evaluated by
  Zolotarev's integral in Nolan's (1997) form: for z > 0, alpha != 1,
  F(z) = c1 + sgn(1-alpha)/pi * int_{-theta0}^{pi/2} exp(-z^(alpha/(alpha-1))
  V(theta)) dtheta, and F(z; beta) = 1 - F(-z; -beta) for z < 0; alpha == 1
  has its own form of V and needs no split at z = 0.  The integrand is
  finite and not oscillatory.  It is split where its exponent h equals 1 and
  where Nolan's density integrand peaks; each piece gets fixed
  double-exponential nodes scaled to the local slope of log h.
* Beyond a per-law threshold the heavy tail is six terms of Bergstrom's
  series, whose first term is Samorodnitsky & Taqqu's (1994) Prop. 1.2.15
  and whose truncation there is below 1e-13 of that term; at alpha == 1 the
  first term (1 + beta) / (pi z) takes over beyond |z| = 1e8.

Against the same integral with half the step and wider panels, the error is
at most 3e-12 over a grid of alpha in [0.05, 1.99], beta in [-1, 1] (0.999999
included) and |z| up to 1e6.  Each value carries an error estimate, its gap
to the embedded rule of twice the step, which stays below 1e-8 on that grid;
where it exceeds ``_MAX_ABSERR`` (5e-8), ``cdf`` raises
:class:`QuadratureError` rather than return the value.

The node tables of the quadrature are built at the first ``cdf`` call that
needs them, so importing this module or drawing from a law does not.

Each evaluation, ``cdf`` and ``char_fn``, is one floating-point scope: it
silences numpy's overflow, division and invalid-operation warnings for its
whole body, where they arise by design, and checks its result explicitly
(``cdf`` by the error estimate, ``char_fn`` by the finiteness of its value),
so it answers alike under any ``np.errstate`` of its caller.

Domain
------
alpha is refused below ``_MIN_ALPHA`` = 0.05.  Below it the draw
``(cos(theta - arg) / w) ** ((1 - alpha) / alpha)`` overflows for exponential
w under 10**(-308 alpha / (1 - alpha)), which 1e6 draws at alpha = 0.02 already
reach (a warning, then inf or nan); at 0.05 that takes w under 6e-17, a
chance of 6e-17 per draw.  At alpha = 0.03 to 0.06, 4e6 draws at each of
beta = -1, -0.5, 0, 0.5, 1 are finite and raise no warning, ``cdf`` answers
without a warning or a ``QuadratureError`` at |x| from 5e-324 to 1.7e308, and
F(0) = 0.5 within 1e-12 at beta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from .rng import _as_finite, _check_count, _check_real, _power, as_generator

__all__ = [
    "StableParams",
    "QuadratureError",
    "char_fn",
    "scale_shift",
    "sample",
    "cdf",
    "limit_constant",
]

# Smallest alpha of a law; see "Domain" in the module docstring.
_MIN_ALPHA = 0.05
# Largest tolerated error estimate of a CDF value before we refuse to answer.
_MAX_ABSERR = 5e-8
# Points per block of the quadrature's (points x nodes) matrices.
_CHUNK = 32
# Terms of the tail series, and its tolerated truncation relative to its first term.
_TAIL_TERMS = 6
_TAIL_RTOL = 1e-13
# Most Newton steps that place a split point on h = 1; one is enough but
# within about 1e-4 of alpha = 1.
_NEWTON_STEPS = 6
# |z| beyond which alpha == 1 takes the first term of its tails.
_ALPHA_ONE_TAIL = 1e8
# |beta| below which alpha == 1 is Cauchy plus its first-order term in beta;
# the integral holds to |z| = 1e8 above it, and the next term is below 1e-14.
_ALPHA_ONE_SMALL_BETA = 1e-6


class QuadratureError(RuntimeError):
    """The CDF kernel's error estimate exceeds ``_MAX_ABSERR`` at some point."""


@dataclass(frozen=True)
class StableParams:
    """Parameter block of one stable law (see module docstring)."""

    alpha: float
    beta: float
    dispersion: float = 1.0
    location: float = 0.0

    def __post_init__(self):
        _check_real(self.alpha, "alpha", _MIN_ALPHA, 2.0, "[]")
        _check_real(self.beta, "beta", -1.0, 1.0, "[]")
        _check_real(self.dispersion, "dispersion", 0.0)
        _check_real(self.location, "location")


def char_fn(params: StableParams, t):
    """Characteristic function at ``t`` (scalar or array), as complex values.

    Evaluates the exact branch for the stored alpha; the alpha == 1 branch is
    continuous at t = 0 because |t|*log|t| -> 0.  Where |cf| = exp(-m),
    m = dispersion*|t|**alpha (dispersion*t**2/2 at alpha == 2), is below the
    smallest float, the value is 0 even where m or the phase overflows.  A
    phase that overflows where |cf| is not 0, as location*t can, is refused
    with a ``ValueError``.
    """
    t = _as_finite(t, "t")
    a, b, d, mu = params.alpha, params.beta, params.dispersion, params.location
    with np.errstate(all="ignore"):
        drift = 1j * mu * t
        if a == 2.0:
            m = 0.5 * d * t * t
            out = np.exp(-m + drift)
        elif a == 1.0:
            at = np.abs(t)
            log_at = np.log(at)
            m = d * at
            # t*log|t| with the t=0 limit patched in; where it overflows and
            # |cf| is not 0, d*t*log|t| may not, so there d*t is formed first
            tlog = np.where(at > 0.0, t * log_at, 0.0)
            phase = np.where(np.isfinite(tlog) | (np.exp(-m) == 0.0),
                             1j * d * b * (2.0 / math.pi) * tlog,
                             1j * b * (2.0 / math.pi) * ((d * t) * log_at))
            out = np.exp(-m - phase + drift)
        else:
            skew = math.tan(math.pi * a / 2.0)
            m = d * np.abs(t) ** a
            out = np.exp(-m * (1.0 - 1j * b * skew * np.sign(t)) + drift)
        out = np.where(np.isfinite(out) | (np.exp(-m) > 0.0), out, 0j)
    if not np.isfinite(out).all():
        raise ValueError("the phase of the characteristic function overflows")
    if out.ndim == 0:
        return complex(out)
    return out


def scale_shift(params: StableParams, c: float, d: float) -> StableParams:
    """Law of ``c*X + d`` for X ~ ``params``; requires c > 0.

    Exact on every branch: for alpha == 1 the scaling also moves the location
    by ``-(2/pi)*beta*dispersion*c*log(c)``, which keeps
    ``char_fn(result, t) == char_fn(params, c*t) * exp(i*d*t)`` an identity.
    """
    _check_real(c, "c", 0.0)
    _check_real(d, "d")
    a = params.alpha
    new_disp = params.dispersion * _power(c, a, "c**alpha")
    new_loc = c * params.location + d
    if a == 1.0:
        new_loc -= (2.0 / math.pi) * params.beta * params.dispersion * c * math.log(c)
    return replace(params, dispersion=new_disp, location=new_loc)


# pi/2 as math.pi / 2 plus the double nearest its rounding error
_HALF_PI_LO = 6.123233995736766e-17


def _sin(a, scratch, out=None):
    """sin(a) for |a| <= pi, as 2u / (1 + u**2) with u = tan(a / 2), into
    ``out`` (which may be ``a``) or a new array; ``scratch`` is overwritten."""
    u = np.multiply(a, 0.5, out=out)
    np.tan(u, out=u)
    den = np.multiply(u, u, out=scratch)
    den += 1.0
    u += u
    u /= den
    return u


def _cos(phi, scratch):
    """cos(phi) for |phi| <= pi/2, in place, as sin(pi/2 - |phi|); pi/2 is
    taken in two parts, so the difference keeps its relative accuracy near
    |phi| = pi/2, where the draws' heavy tail comes from."""
    delta = np.abs(phi, out=phi)
    np.subtract(math.pi / 2.0, delta, out=delta)
    delta += _HALF_PI_LO
    return _sin(delta, scratch, out=delta)


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draws of the unit-dispersion, zero-location law, alpha in (0,2).

    The operations run in place on the draws' own buffers, in the order and
    association of the textbook expressions with ``_sin`` and ``_cos`` for
    their sines and cosines, so the bits are those of these expressions
    (``tests/reference_sampler.py``).  The exponentials are drawn after the
    uniforms, into the trigonometry's scratch array once it is done with, so
    a call holds at most four arrays of n floats at once."""
    theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    scratch = np.empty(n)
    if alpha == 1.0:
        # ((pi/2 + beta theta) tan theta - beta log((pi/2 w) cos theta
        #  / (pi/2 + beta theta))) / (pi/2)
        half_pi = math.pi / 2.0
        shifted = beta * theta
        shifted += half_pi
        x = np.tan(theta)
        x *= shifted
        cos_theta = _cos(theta, scratch)
        w = rng.standard_exponential(out=scratch)
        w *= half_pi
        w *= cos_theta
        w /= shifted
        np.log(w, out=w)
        w *= beta
        x -= w
        x /= half_pi
        return x
    # scale sin(arg) / cos(theta)**(1/alpha) * (cos(theta - arg) / w)**((1-alpha)/alpha)
    # with arg = alpha (theta + pivot)
    skew = math.tan(math.pi * alpha / 2.0)
    pivot = math.atan(beta * skew) / alpha
    scale = (1.0 + (beta * skew) ** 2) ** (0.5 / alpha)
    arg = theta + pivot
    arg *= alpha
    x = _sin(arg, scratch)
    x *= scale
    ratio = _cos(np.subtract(theta, arg, out=arg), scratch)
    cos_theta = _cos(theta, scratch)
    w = rng.standard_exponential(out=scratch)
    ratio /= w
    ratio **= (1.0 - alpha) / alpha
    cos_theta **= 1.0 / alpha
    x /= cos_theta
    x *= ratio
    return x


def sample(params: StableParams, seed, n: int) -> np.ndarray:
    """Draw ``n`` iid variates; exact in distribution, O(1) per draw.

    ``seed`` is an integer or a ``numpy.random.Generator``.  The Gaussian
    branch short-circuits to normal draws; alpha == 1 uses its dedicated
    transform, everything else the trigonometric one.
    """
    n = _check_count(n, "n", 0)
    rng = as_generator(seed)
    a, b, d, mu = params.alpha, params.beta, params.dispersion, params.location
    # the scale and shift run in place; + mu stays even at mu = 0.0, where it
    # turns a draw of -0.0 into +0.0
    if a == 2.0:
        x = rng.standard_normal(n)
        x *= math.sqrt(d)
        x += mu
        return x
    x = _cms_standard(a, b, rng, n)
    if a == 1.0:
        # Same drift correction as scale_shift: scaling the unit draw by d
        # displaces the alpha=1 location.
        x *= d
        x += mu
        x += (2.0 / math.pi) * b * d * math.log(d)
        return x
    x *= _power(d, 1.0 / a, "dispersion**(1/alpha)")
    x += mu
    return x


# erfc at each point of an array; an array of objects, to be cast to float
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _expit(s):
    """The logistic function 1 / (1 + exp(-s)); 0 where exp(-s) overflows,
    which raises no warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-s))


def _rule(t_lo: float, t_hi: float, position, speed):
    """Nodes of the trapezoid rule of step ``_STEP`` in t after the map
    ``position(t)`` with derivative ``speed(t)``: positions, weights and the
    weights of the embedded rule of twice the step (every other node)."""
    t = np.arange(round(t_lo / _STEP), round(t_hi / _STEP) + 1) * _STEP
    weight = _STEP * speed(t)
    coarse = np.where(np.arange(t.size) % 2 == 0, 2.0 * weight, 0.0)
    return position(t), weight, coarse


@cache
def _nodes():
    """The panels of every CDF point as rows of nodes, and the matrices that
    map the integrand on those rows to the sums the kernel needs; built once,
    at the first call.

    Two outer panels run from a split point to +-inf in s, with offsets
    tau = exp(t - exp(-t)) in units of a scale lambda: they pack nodes doubly
    exponentially against the split point and spread them out as tau grows.
    The first runs toward small h, where the integrand can decay as slowly as
    the measure dtheta/ds, so it reaches further than the second, toward
    large h, where exp(-h) dies.  Each starts with a node of weight 0 on its
    split point.  The middle panel spans the gap between two split points
    with the tanh-sinh positions expit(pi sinh t), packed against both ends.

    Columns of the outer matrix: the full-step and the half-step sum of each
    outer panel, then their end terms; of the middle matrix, its two sums.
    Returned with the slice of the nodes of the first outer panel."""
    def offset(t):
        return np.exp(t - np.exp(-t))

    def offset_speed(t):
        return np.exp(t - np.exp(-t)) * (1.0 + np.exp(-t))

    def middle_speed(t):
        x = math.pi * np.sinh(t)
        return math.pi * np.cosh(t) * _expit(x) * _expit(-x)

    start = [np.zeros(1)] * 3
    outer = [start, _rule(-3.5, 5.5, offset, offset_speed),
             start, _rule(-3.5, 4.5, offset, offset_speed)]
    pos, weight, coarse = (np.concatenate([p[i] for p in outer]) for i in range(3))
    block = np.repeat([0, 0, 1, 1], [p[0].size for p in outer])
    sums = np.zeros((pos.size, 8))
    for j in (0, 1):
        cols = np.flatnonzero(block == j)
        sums[cols, 2 * j] = weight[cols]
        sums[cols, 2 * j + 1] = coarse[cols]
        sums[cols[1], 4 + 2 * j] = weight[cols[1]]
        sums[cols[-1], 5 + 2 * j] = weight[cols[-1]]
    middle = _rule(-3.2, 3.2, lambda t: _expit(math.pi * np.sinh(t)), middle_speed)
    middle_sums = np.stack([middle[1], middle[2]], axis=1)
    for arr in (pos, block, sums, middle[0], middle_sums):
        arr.flags.writeable = False
    small = slice(0, int(np.count_nonzero(block == 0)))
    return pos, block, sums, middle[0], middle_sums, small


_STEP = 1.0 / 32
# s grid on which each law tabulates log V to place the split points
_TABLE_S = np.linspace(-40.0, 40.0, 321)
_TABLE_S.flags.writeable = False


class _Integral:
    """Zolotarev's integral for the standard S1 law at one alpha and one sign of
    beta, with theta written through s:  theta = -theta0 + L * expit(s), so
    u = theta + theta0 = L * expit(s) and w = pi/2 - theta = L * expit(-s) are
    both computed without cancellation.  Every trigonometric factor is taken
    from whichever of u and w is small, so V keeps its relative accuracy at
    both ends of the range.

    ``h = exp(shift + log V)`` is the exponent of the integrand; it grows with s
    for alpha <= 1 and falls with s for alpha > 1.
    """

    def __init__(self, alpha: float, b: float):
        self.alpha, self.b = alpha, b
        self.rising = alpha <= 1.0
        if alpha == 1.0:
            self.length = math.pi
        else:
            cpa = math.sin(0.5 * math.pi * (1.0 - alpha))   # cos(pi alpha / 2)
            spa = math.cos(0.5 * math.pi * (1.0 - alpha))   # sin(pi alpha / 2)
            hyp = math.hypot(cpa, b * spa)
            cos_at0 = abs(cpa) / hyp                        # cos(alpha theta0)
            # alpha L = alpha (pi/2 + theta0) and pi - alpha L, from their sine
            # and cosine, so neither cancels near alpha = 1 or |beta| = 1
            sin_al = spa * abs(cpa) * (1.0 + b) / hyp
            cos_al = math.copysign(1.0, cpa) * (cpa * cpa - b * spa * spa) / hyp
            alpha_l = math.atan2(sin_al, cos_al)
            self.delta = math.atan2(sin_al, -cos_al)
            self.length = alpha_l / alpha
            if alpha < 1.0:   # pi - L, exact where L is near pi (beta near 1)
                self.gap = math.atan2(spa * cpa * (1.0 - b), cpa * cpa + b * spa * spa) / alpha
            else:
                self.gap = math.pi - self.length
            self.q = 1.0 / (alpha - 1.0)
            self.p = alpha * self.q
            self.log_c = self.q * math.log(cos_at0)
            # Bergstrom's series of the survival function, sum_k a_k z^(-alpha k)
            # (Samorodnitsky & Taqqu 1994, Prop. 1.2.15 is its first term)
            k = np.arange(1, _TAIL_TERMS + 2)
            gam = np.array([math.gamma(alpha * j) / math.factorial(j) for j in k])
            tail = ((-1.0) ** (k + 1) * gam * cos_at0 ** -k.astype(float)
                    * np.sin(k * alpha_l) / math.pi)
            # the first _TAIL_TERMS terms as a polynomial in z^(-alpha)
            self.series = np.append(tail[-2::-1], 0.0)
            # use the series where the first omitted term is below _TAIL_RTOL
            # of the first one; the totally skewed light side has no such tail
            if tail[0] > 0.0:
                self.z_tail = (abs(tail[-1]) / (_TAIL_RTOL * tail[0])) ** (
                    1.0 / (alpha * _TAIL_TERMS))
            else:
                self.z_tail = math.inf
        if self.length > 0.0:
            self._tabulate()

    def log_v(self, s, slope: bool = False):
        """log V at s, with u and w, or with d log V / ds when ``slope``."""
        a, length = self.alpha, self.length
        u = length * _expit(s)
        w = length * _expit(-s)
        if a == 1.0:
            b = self.b
            lin = 0.5 * math.pi * (1.0 - b) + b * u         # pi/2 + b theta
            cos_t = np.sin(np.minimum(u, w))
            tan_t = np.cos(w) / cos_t
            lv = math.log(2.0 / math.pi) + np.log(lin) - np.log(cos_t) + lin / b * tan_t
            if slope:
                dv = b / lin + 2.0 * tan_t + lin / b * (1.0 + tan_t * tan_t)
        else:
            # cos(theta), sin(alpha u) and cos(alpha theta0 + (alpha-1) theta)
            # as sines of the smaller of their argument and its supplement,
            # each supplement written as a sum of two non-negative terms
            sin_w = np.sin(np.minimum(w, self.gap + u))
            sin_au = np.sin(np.minimum(a * u, self.delta + a * w))
            big = length + (a - 1.0) * u
            if a > 1.0:
                supplement = self.delta + (a - 1.0) * w
            else:
                supplement = self.gap + (1.0 - a) * u
            sin_big = np.sin(np.minimum(big, supplement))
            lv = self.log_c + self.q * np.log(sin_w) - self.p * np.log(sin_au) + np.log(sin_big)
            if slope:
                dv = (-self.q * np.cos(w) / sin_w - self.p * a * np.cos(a * u) / sin_au
                      + (a - 1.0) * np.cos(big) / sin_big)
        if slope:
            return lv, dv * (u * w / length)
        return lv, u, w

    def _tabulate(self):
        """Tabulate, on the s grid, log V, the slope k = |d log V / ds| of log h
        and what the two split points are found from.

        The first split point is where h = 1, or, where k drops below 1, where
        h = 1/k, which is where the integrand exp(-h) dtheta/ds then peaks: the
        root of log V + min(0, log k) = -shift.  The table holds that key under
        asinh, which keeps it close to linear in s both where log V grows like
        s (alpha != 1) and where it grows like exp(s) (alpha == 1), made
        monotone.  The second is the mode of Nolan's density integrand
        h k exp(-h) dtheta/ds, the point where the CDF integrand changes
        fastest; ``table_rest`` holds log k + log dtheta/ds for it."""
        lv, u, w = self.log_v(_TABLE_S)
        k = np.abs(np.gradient(lv, _TABLE_S))
        key = np.arcsinh(lv + np.minimum(0.0, np.log(k)))
        self.table_lv, self.table_k = lv, k
        self.table_rest = np.log(k) + np.log(u * w / self.length)
        if self.rising:
            self.key, self.key_s = np.fmax.accumulate(key), _TABLE_S
        else:
            self.key, self.key_s = np.fmin.accumulate(key)[::-1], _TABLE_S[::-1]

    def integral(self, shift):
        """J = int exp(-exp(shift + log V)) dtheta over the whole range, and an
        error estimate, for each element of ``shift``.

        The first split point comes from the table and, where the tabulated
        slope k of log h is 4 or more (steeper than the table resolves),
        Newton steps on log h = 0; the second is the mode of the density
        integrand on the table.  They lie within one unit of s when the law has
        one transition, and then the root is the only split point; near
        |beta| = 1 the integrand can also have a plateau ending in a cliff, and
        then each transition gets its own split point, with the middle panel
        between them.  Each outer panel has its fixed nodes in units of
        lambda = 1 / max(1, k) at its split point.  The outer panel on the side
        where h falls to 0 integrates expm1(-h) and adds the exact width of its
        range, so both outer integrands decay away from their split points;
        the others integrate exp(-h).  The estimate is the difference from the
        half-step rule plus the end terms of the outer panels; it is infinite
        where the Newton steps missed h = 1 by more than lambda."""
        positions, block, outer_sums, middle_nodes, middle_sums, small = _nodes()
        target = np.arcsinh(-shift)
        root = np.interp(target, self.key, self.key_s)
        k_root = np.interp(root, _TABLE_S, self.table_k)
        steep = (k_root >= 4.0) & (target > self.key[0]) & (target < self.key[-1])
        if steep.any():
            # a point that has converged keeps its root and slope, so the
            # result of each point does not depend on the rest of its block
            for _ in range(_NEWTON_STEPS):
                lv, dv = self.log_v(root, slope=True)
                k_root = np.where(steep, np.abs(dv), k_root)
                step = np.clip((shift + lv) / dv, -0.5, 0.5)
                move = steep & ~(np.abs(step * dv) <= 0.1)
                if not move.any():
                    break
                root = np.where(move, root - step, root)
        y = shift[:, None] + self.table_lv
        peak = np.argmax(np.where(np.isnan(y), -np.inf, y + self.table_rest - np.exp(y)),
                         axis=1)
        lam_root = 1.0 / np.fmax(1.0, k_root)
        # a mode within one unit of s of the root is the same transition
        one = np.abs(_TABLE_S[peak] - root) <= 1.0
        mode = np.where(one, root, _TABLE_S[peak])
        lam_mode = np.where(one, lam_root, 1.0 / np.fmax(1.0, self.table_k[peak]))
        first = root <= mode
        lo, hi = np.minimum(root, mode), np.maximum(root, mode)
        lam_lo = np.where(first, lam_root, lam_mode)
        lam_hi = np.where(first, lam_mode, lam_root)
        # block 0 runs toward small h: left of lo if h rises with s, else
        # right of hi; block 1 the other way
        origin = np.empty((shift.size, 2))
        scale = np.empty((shift.size, 2))
        if self.rising:
            origin[:, 0], scale[:, 0], origin[:, 1], scale[:, 1] = lo, -lam_lo, hi, lam_hi
        else:
            origin[:, 0], scale[:, 0], origin[:, 1], scale[:, 1] = hi, lam_hi, lo, -lam_lo
        lv, u, w = self.log_v(origin[:, block] + scale[:, block] * positions)
        h = np.exp(shift[:, None] + lv)
        f = np.exp(-h)
        f[:, small] = np.expm1(-h[:, small])
        # dtheta/ds = u w / L; the 1/L is applied to the sums
        f *= u * w
        sums = np.einsum("ij,jk->ik", f, outer_sums)
        size = np.abs(scale) / self.length
        fine = size * sums[:, 0:4:2]
        total = self.length * _expit(lo if self.rising else -hi) + fine.sum(axis=1)
        err = (np.abs(fine - size * sums[:, 1:4:2]).sum(axis=1)
               + (size * np.abs(sums[:, 4:8:2])).sum(axis=1)
               + (size * np.abs(sums[:, 5:8:2])).sum(axis=1))
        missed = steep
        if steep.any():
            y_root = shift + np.where(first == self.rising, lv[:, 0], lv[:, small.stop])
            missed = steep & ~(np.abs(y_root) <= 1.0)
        # the middle panel, [lo, hi], where there are two split points
        two = ~one
        if two.any():
            span = (hi - lo)[two]
            lv, u, w = self.log_v(lo[two][:, None] + span[:, None] * middle_nodes)
            f = np.exp(-np.exp(shift[two][:, None] + lv)) * (u * w)
            sums = np.einsum("ij,jk->ik", f, middle_sums) * (span / self.length)[:, None]
            total[two] += sums[:, 0]
            err[two] += np.abs(sums[:, 0] - sums[:, 1])
        err = np.where(missed | ~np.isfinite(total), np.inf, err)
        return total, err

    def cdf(self, z):
        """F and its error estimate at z: any z for alpha == 1, z > 0 otherwise.
        Beyond the threshold of its law a point takes the tail series, whose
        truncation is below _TAIL_RTOL, in place of the integral."""
        f = np.ones_like(z)
        err = np.zeros_like(z)
        if self.length == 0.0:   # alpha < 1, beta = -1: support (-inf, 0]
            return f, err
        if self.alpha == 1.0:
            # first term of the tails, (1 +- b) / (pi |z|); the next term is
            # O(log|z| / z^2), below 1e-22 beyond _ALPHA_ONE_TAIL
            tail = np.abs(z) >= _ALPHA_ONE_TAIL
            if tail.any():
                zt = z[tail]
                f[tail] = np.where(zt > 0.0, 1.0 - (1.0 + self.b) / (math.pi * zt),
                                   (1.0 - self.b) / (math.pi * np.abs(zt)))
        else:
            tail = z >= self.z_tail
            if tail.any():
                f[tail] = 1.0 - np.polyval(self.series, z[tail] ** -self.alpha)
        body = ~tail
        if body.any():
            zb = z[body]
            shift = -0.5 * math.pi / self.b * zb if self.alpha == 1.0 else self.p * np.log(zb)
            j, e = np.empty((2, zb.size))
            for lo in range(0, zb.size, _CHUNK):
                j[lo:lo + _CHUNK], e[lo:lo + _CHUNK] = self.integral(shift[lo:lo + _CHUNK])
            if self.alpha < 1.0:
                j += self.gap
            f[body] = 1.0 - j / math.pi if self.alpha > 1.0 else j / math.pi
            err[body] = e / math.pi
        return f, err


@lru_cache(maxsize=64)
def _integral(alpha: float, b: float) -> _Integral:
    return _Integral(alpha, b)


def _standard_cdf(alpha: float, beta: float, z: np.ndarray):
    """F and its error estimate for the standard S1 law (0 < alpha < 2)."""
    if alpha == 1.0:
        if abs(beta) < _ALPHA_ONE_SMALL_BETA:
            # Nolan's alpha == 1 form divides by beta; near beta = 0 the law is
            # Cauchy plus beta dF/dbeta, with the next term below 0.01 beta^2
            s = 1.0 + 1j * z
            slope = -2.0 / math.pi**2 * np.real((np.euler_gamma + np.log(s)) / s)
            return 0.5 + np.arctan(z) / math.pi + beta * slope, np.zeros_like(z)
        # F(z; beta) = 1 - F(-z; -beta), so only beta > 0 is integrated
        f, err = _integral(1.0, abs(beta)).cdf(z if beta > 0.0 else -z)
        return (f if beta > 0.0 else 1.0 - f), err
    # F(0) = gap / pi, taken at |beta| and mirrored, so that F(0; beta) and
    # F(0; -beta) sum to 1 and F(0; 0) is 1/2, whatever the rounding of gap
    f0 = 0.5 if beta == 0.0 else _integral(alpha, abs(beta)).gap / math.pi
    f = np.full_like(z, f0 if beta >= 0.0 else 1.0 - f0)
    err = np.zeros_like(z)
    for sign in (1.0, -1.0):
        side = sign * z > 0.0
        if side.any():
            fs, es = _integral(alpha, sign * beta).cdf(np.abs(z[side]))
            f[side] = fs if sign > 0.0 else 1.0 - fs
            err[side] = es
    return f, err


def cdf(params: StableParams, x):
    """P(X <= x); a scalar ``x`` gives a float, an array of x an array of the
    same shape.

    See the module docstring for the method and its accuracy.  Raises
    :class:`QuadratureError` where the error estimate of a value exceeds
    ``_MAX_ABSERR``, instead of returning a value the kernel cannot vouch for,
    and ``ValueError`` for an x that is not finite.
    """
    xs = _as_finite(x, "x")
    a, b, d, mu = params.alpha, params.beta, params.dispersion, params.location
    # One floating-point scope for the whole evaluation: the standardization
    # and the kernel overflow and underflow by design, and each value is
    # checked by its error estimate instead.
    with np.errstate(all="ignore"):
        if a == 2.0:
            out = 0.5 * _erfc((mu - xs.ravel()) / math.sqrt(2.0 * d)).astype(float)
        else:
            # the scale d**(1/alpha) can overflow or underflow for small alpha;
            # then every z is 0, or +-inf away from the location
            if a == 1.0:
                z = (xs.ravel() - mu) / d - 2.0 / math.pi * b * math.log(d)
            else:
                z = (xs.ravel() - mu) / np.float64(d) ** (1.0 / a)
            z[np.isnan(z)] = 0.0
            out, err = _standard_cdf(a, b, z)
            bad = ~(err <= _MAX_ABSERR)
            if bad.any():
                i = int(np.argmax(bad))
                raise QuadratureError(
                    f"stable CDF integral did not converge at x={xs.ravel()[i]} "
                    f"(error estimate {err[i]:.2e})")
            np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def limit_constant(alpha: float) -> float:
    """The constant gamma(alpha+1) ** (1/alpha) appearing in the limit laws.

    alpha = 2 gives sqrt(2); alpha = 1.5 gives 1.20906...
    """
    _check_real(alpha, "alpha", 1.0, 2.0, "(]")
    return math.gamma(alpha + 1.0) ** (1.0 / alpha)
