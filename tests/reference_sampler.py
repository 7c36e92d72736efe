"""Test-only reference sampler: ``stablesums.stable.sample`` as textbook
array expressions, one temporary per operation, kept as the oracle for the
bits of the in-place sampler.

``reference_sample(params, rng, n)`` draws the same uniforms and exponentials
in the same order as ``sample`` and combines them by the
Chambers-Mallows-Stuck transform written out in full.  Its sines and cosines
are ``half_angle_sin`` and ``half_angle_cos``, the sampler's own; with
``sin=np.sin, cos=np.cos`` it is the transform on the C library's sine and
cosine, a second oracle that the sampler meets within rounding.
"""

import math

import numpy as np

from stablesums import StableParams

# pi/2 - math.pi / 2, rounded
HALF_PI_LO = 6.123233995736766e-17


def half_angle_sin(a):
    """sin(a), |a| <= pi, from the tangent of the half angle."""
    u = np.tan(a / 2.0)
    return 2.0 * u / (1.0 + u * u)


def half_angle_cos(phi):
    """cos(phi), |phi| <= pi/2, as the sine of pi/2 - |phi|."""
    return half_angle_sin(math.pi / 2.0 - np.abs(phi) + HALF_PI_LO)


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, n: int,
                  sin, cos) -> np.ndarray:
    theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = rng.standard_exponential(n)
    if alpha == 1.0:
        half_pi = math.pi / 2.0
        shifted = half_pi + beta * theta
        return (
            shifted * np.tan(theta)
            - beta * np.log(half_pi * w * cos(theta) / shifted)
        ) / half_pi
    skew = math.tan(math.pi * alpha / 2.0)
    pivot = math.atan(beta * skew) / alpha
    scale = (1.0 + (beta * skew) ** 2) ** (0.5 / alpha)
    arg = alpha * (theta + pivot)
    return (
        scale
        * sin(arg)
        / cos(theta) ** (1.0 / alpha)
        * (cos(theta - arg) / w) ** ((1.0 - alpha) / alpha)
    )


def reference_sample(params: StableParams, rng: np.random.Generator, n: int,
                     sin=half_angle_sin, cos=half_angle_cos) -> np.ndarray:
    """``n`` draws of ``params`` from ``rng``, with the given sine and cosine."""
    a, b, d, mu = params.alpha, params.beta, params.dispersion, params.location
    if a == 2.0:
        return mu + math.sqrt(d) * rng.standard_normal(n)
    x = _cms_standard(a, b, rng, n, sin, cos)
    if a == 1.0:
        return d * x + mu + (2.0 / math.pi) * b * d * math.log(d)
    return d ** (1.0 / a) * x + mu
