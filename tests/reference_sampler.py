"""Test-only reference sampler: ``stablesums.stable.sample`` as textbook
array expressions, one temporary per operation, kept as the oracle for the
bits of the in-place sampler.

``reference_sample(params, rng, n)`` draws the same uniforms and exponentials
in the same order as ``sample`` and combines them by the
Chambers-Mallows-Stuck transform written out in full.
"""

import math

import numpy as np

from stablesums import StableParams


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
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


def reference_sample(params: StableParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` draws of ``params`` from ``rng``."""
    a, b, d, mu = params.alpha, params.beta, params.dispersion, params.location
    if a == 2.0:
        return mu + math.sqrt(d) * rng.standard_normal(n)
    x = _cms_standard(a, b, rng, n)
    if a == 1.0:
        return d * x + mu + (2.0 / math.pi) * b * d * math.log(d)
    return d ** (1.0 / a) * x + mu
