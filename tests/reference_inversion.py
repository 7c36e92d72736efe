"""Test-only reference CDF: the Fourier inversion ``stablesums.stable.cdf`` used
before its Zolotarev-integral kernel, kept unchanged as an oracle for the bulk.

``inversion_cdf(params, x)`` integrates Im(exp(-i*t*x) * char_fn(t)) / t over
(0, T] with one adaptive ``quad`` per point and raises
:class:`stablesums.QuadratureError` where that integral does not converge,
which it does in the tails.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad

from stablesums import QuadratureError, StableParams

# Frequency cutoff: |char fn|(T) = exp(-LOG_TAIL), so the discarded tail of the
# inversion integral is far below the 1e-10 budget.
_LOG_TAIL = 27.6
# Largest tolerated quadrature error estimate before we refuse to answer.
_MAX_ABSERR = 5e-8


def _frequency_cutoff(params: StableParams) -> float:
    a, d = params.alpha, params.dispersion
    if a == 2.0:
        return math.sqrt(2.0 * _LOG_TAIL / d)
    return (_LOG_TAIL / d) ** (1.0 / a)


def inversion_cdf(params: StableParams, x):
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
