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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from .rng import _check_count, as_generator

__all__ = [
    "StableParams",
    "QuadratureError",
    "char_fn",
    "scale_shift",
    "sample",
    "cdf",
    "limit_constant",
]

# Frequency cutoff: |char fn|(T) = exp(-LOG_TAIL), so the discarded tail of the
# inversion integral is far below the 1e-10 budget.
_LOG_TAIL = 27.6
# Largest tolerated quadrature error estimate before we refuse to answer.
_MAX_ABSERR = 5e-8


class QuadratureError(RuntimeError):
    """Numerical inversion did not converge to the requested accuracy."""


@dataclass(frozen=True)
class StableParams:
    """Parameter block of one stable law (see module docstring)."""

    alpha: float
    beta: float
    dispersion: float = 1.0
    location: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")
        if not (self.dispersion > 0.0 and math.isfinite(self.dispersion)):
            raise ValueError(f"dispersion must be positive and finite, got {self.dispersion}")
        if not math.isfinite(self.location):
            raise ValueError(f"location must be finite, got {self.location}")


def char_fn(params: StableParams, t):
    """Characteristic function at ``t`` (scalar or array), as complex values.

    Evaluates the exact branch for the stored alpha; the alpha == 1 branch is
    continuous at t = 0 because |t|*log|t| -> 0.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    a, b, d, mu = params.alpha, params.beta, params.dispersion, params.location
    drift = 1j * mu * t
    if a == 2.0:
        out = np.exp(-0.5 * d * t * t + drift)
    elif a == 1.0:
        at = np.abs(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            # t*log|t| with the t=0 limit patched in.
            tlog = np.where(at > 0.0, t * np.log(at), 0.0)
        out = np.exp(-d * at - 1j * d * b * (2.0 / math.pi) * tlog + drift)
    else:
        skew = math.tan(math.pi * a / 2.0)
        out = np.exp(-d * np.abs(t) ** a * (1.0 - 1j * b * skew * np.sign(t)) + drift)
    if out.ndim == 0:
        return complex(out)
    return out


def scale_shift(params: StableParams, c: float, d: float) -> StableParams:
    """Law of ``c*X + d`` for X ~ ``params``; requires c > 0.

    Exact on every branch: for alpha == 1 the scaling also moves the location
    by ``-(2/pi)*beta*dispersion*c*log(c)``, which keeps
    ``char_fn(result, t) == char_fn(params, c*t) * exp(i*d*t)`` an identity.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"scale factor must be positive and finite, got {c}")
    if not math.isfinite(d):
        raise ValueError(f"shift must be finite, got {d}")
    a = params.alpha
    new_disp = params.dispersion * c**a
    new_loc = c * params.location + d
    if a == 1.0:
        new_loc -= (2.0 / math.pi) * params.beta * params.dispersion * c * math.log(c)
    return replace(params, dispersion=new_disp, location=new_loc)


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draws of the unit-dispersion, zero-location law, alpha in (0,2)."""
    theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = rng.standard_exponential(n)
    if alpha == 1.0:
        half_pi = math.pi / 2.0
        shifted = half_pi + beta * theta
        return (
            shifted * np.tan(theta)
            - beta * np.log(half_pi * w * np.cos(theta) / shifted)
        ) / half_pi
    skew = math.tan(math.pi * alpha / 2.0)
    pivot = math.atan(beta * skew) / alpha
    scale = (1.0 + (beta * skew) ** 2) ** (0.5 / alpha)
    arg = alpha * (theta + pivot)
    return (
        scale
        * np.sin(arg)
        / np.cos(theta) ** (1.0 / alpha)
        * (np.cos(theta - arg) / w) ** ((1.0 - alpha) / alpha)
    )


def sample(params: StableParams, seed, n: int) -> np.ndarray:
    """Draw ``n`` iid variates; exact in distribution, O(1) per draw.

    ``seed`` is an integer or a ``numpy.random.Generator``.  The Gaussian
    branch short-circuits to normal draws; alpha == 1 uses its dedicated
    transform, everything else the trigonometric one.
    """
    n = _check_count(n, "n", 0)
    rng = as_generator(seed)
    a, b, d, mu = params.alpha, params.beta, params.dispersion, params.location
    if a == 2.0:
        return mu + math.sqrt(d) * rng.standard_normal(n)
    x = _cms_standard(a, b, rng, n)
    if a == 1.0:
        # Same drift correction as scale_shift: scaling the unit draw by d
        # displaces the alpha=1 location.
        return d * x + mu + (2.0 / math.pi) * b * d * math.log(d)
    return d ** (1.0 / a) * x + mu


def _frequency_cutoff(params: StableParams) -> float:
    a, d = params.alpha, params.dispersion
    if a == 2.0:
        return math.sqrt(2.0 * _LOG_TAIL / d)
    return (_LOG_TAIL / d) ** (1.0 / a)


def cdf(params: StableParams, x):
    """P(X <= x) by adaptive quadrature of the inversion integral; a scalar
    ``x`` gives a float, an array of x an array of the same shape.

    For each x, integrates Im(exp(-i*t*x) * char_fn(t)) / t over (0, T] with
    T chosen so the neglected |char fn| tail is below 1e-10, then clamps the
    result to [0, 1].  Raises :class:`QuadratureError` instead of returning a
    value the quadrature cannot vouch for.  Target accuracy ~1e-6 or better on
    moderate |x|; tails are pinned to 0/1 by the clamp.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    a, b, d, mu = params.alpha, params.beta, params.dispersion, params.location

    # Each integrand takes shift = mu - x, so one serves every x.
    if a == 2.0:
        def integrand(t: float, shift: float) -> float:
            if t == 0.0:
                return shift
            return (cmath.exp(-0.5 * d * t * t + 1j * shift * t)).imag / t
    elif a == 1.0:
        two_over_pi = 2.0 / math.pi
        def integrand(t: float, shift: float) -> float:
            if t == 0.0:
                return 0.0
            psi = -d * t * (1.0 + 1j * b * two_over_pi * math.log(t)) + 1j * shift * t
            return (cmath.exp(psi)).imag / t
    else:
        skew = math.tan(math.pi * a / 2.0)
        def integrand(t: float, shift: float) -> float:
            if t == 0.0:
                return 0.0
            psi = -d * t**a * (1.0 - 1j * b * skew) + 1j * shift * t
            return (cmath.exp(psi)).imag / t

    cutoff = _frequency_cutoff(params)
    out = np.empty(xs.size)
    for i, xi in enumerate(xs.ravel().tolist()):
        val, abserr, *_ = quad(integrand, 0.0, cutoff, args=(mu - xi,), limit=800,
                               epsabs=1e-11, epsrel=1e-10, full_output=1)
        if abserr > _MAX_ABSERR:
            raise QuadratureError(f"inversion integral did not converge at x={xi} "
                                  f"(error estimate {abserr:.2e})")
        out[i] = min(1.0, max(0.0, 0.5 - val / math.pi))
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def limit_constant(alpha: float) -> float:
    """The constant gamma(alpha+1) ** (1/alpha) appearing in the limit laws.

    alpha = 2 gives sqrt(2); alpha = 1.5 gives 1.20906...
    """
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    return math.gamma(alpha + 1.0) ** (1.0 / alpha)
