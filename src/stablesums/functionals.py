"""Functional statistics of partial sums and their limit laws.

The central object is the step path

    t  ->  (1/a_n) * sum_{k <= floor(n*t)} ( f(S_k / k) - f(mu) ),

whose limit, for smooth f and inputs attracted to index alpha with skewness
beta, is f'(mu) * integral over (0, t] of L(x)/x dx for a stable Levy motion
L.  That integral carries the law S(alpha, beta, gamma(alpha+1) * t, 0) up to
the factor f'(mu), which :func:`limit_law` spells out; products of partial-sum
ratios are the same statistic run through f(x) = mu*log(x/mu) and exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .paths import DoaSpec, SamplePath
from .rng import _as_samples, _check_count
from .stable import StableParams

__all__ = [
    "DomainError",
    "FunctionSpec",
    "FunctionalConfig",
    "qi_log",
    "identity_fn",
    "functional_statistic",
    "product_statistic",
    "log_product_statistic",
    "integral_riemann",
    "limit_law",
]


class DomainError(ValueError):
    """A partial-sum average left the domain of the transform."""


@dataclass(frozen=True)
class FunctionSpec:
    """Smooth transform bound to a working mean: f, f'(mu), and the domain
    predicate guarding f's arguments (vectorized)."""

    f: Callable
    f_prime_at_mu: float
    domain_check: Callable
    name: str = "f"

    def __post_init__(self):
        if not math.isfinite(self.f_prime_at_mu):
            raise ValueError(f"f_prime_at_mu must be finite, got {self.f_prime_at_mu}")


def qi_log(mu: float) -> FunctionSpec:
    """f(x) = mu * log(x / mu) on (0, inf); f'(mu) = 1.

    The normalization makes the log of the product statistic literally this
    functional statistic, whatever mu is.
    """
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"qi_log needs mu > 0, got {mu}")
    return FunctionSpec(
        f=lambda x: mu * np.log(x / mu),
        f_prime_at_mu=1.0,
        domain_check=lambda x: np.asarray(x) > 0.0,
        name=f"qi_log(mu={mu!r})",
    )


def identity_fn() -> FunctionSpec:
    """f(x) = x everywhere; the raw invariance-principle statistic."""
    return FunctionSpec(
        f=lambda x: np.asarray(x, dtype=float),
        f_prime_at_mu=1.0,
        domain_check=lambda x: np.isfinite(np.asarray(x, dtype=float)),
        name="identity",
    )


@dataclass(frozen=True)
class FunctionalConfig:
    """One functional-CLT experiment: input family, transform, horizon n and
    path grid."""

    spec: DoaSpec
    fn: FunctionSpec
    n: int
    grid: int

    def __post_init__(self):
        _check_count(self.n, "n", 1)
        _check_count(self.grid, "grid", 1)


def functional_statistic(x, fn: FunctionSpec, mu: float, a_n: float, grid: int) -> SamplePath:
    """Step path of the centered, rescaled f-sums of the sequence ``x``.

    Grid time j/grid carries (1/a_n) * sum_{k <= floor(n*j/grid)} of
    f(S_k/k) - f(mu); the cut floor(n*j/grid) is computed in integer
    arithmetic.  A partial-sum average outside f's domain raises
    :class:`DomainError` naming the offending k.
    """
    x = _as_samples(x, "x")
    if not (a_n > 0.0 and math.isfinite(a_n)):
        raise ValueError(f"a_n must be positive and finite, got {a_n}")
    n, m = x.size, _check_count(grid, "grid", 1)
    averages = np.cumsum(x) / np.arange(1, n + 1)
    ok = np.asarray(fn.domain_check(averages), dtype=bool)
    if not ok.all():
        k = int(np.argmin(ok)) + 1
        raise DomainError(
            f"partial-sum average at k={k} ({averages[k - 1]!r}) is outside "
            f"the domain of {fn.name}"
        )
    center = float(np.asarray(fn.f(float(mu))))
    terms = np.concatenate(([0.0], np.cumsum(fn.f(averages) - center)))
    j = np.arange(m + 1)
    values = terms[n * j // m] / a_n
    return SamplePath(times=j / m, values=values)


def log_product_statistic(x, mu: float, exponent: float) -> float:
    """exponent * sum_k log(S_k / (k*mu)), the product statistic in log space."""
    x = _as_samples(x, "x")
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent}")
    sums = np.cumsum(x)
    if np.any(sums <= 0.0):
        k = int(np.argmax(sums <= 0.0)) + 1
        raise DomainError(f"partial sum at k={k} is not positive ({sums[k - 1]!r})")
    n = x.size
    logs = np.log(sums) - np.log(np.arange(1, n + 1) * mu)
    return float(exponent * logs.sum())


def product_statistic(x, mu: float, exponent: float) -> float:
    """prod_k (S_k / (k*mu)) ** exponent, computed in log space throughout."""
    return math.exp(log_product_statistic(x, mu, exponent))


def integral_riemann(path: SamplePath, t: float, eps: Optional[float] = None) -> float:
    """Right-endpoint Riemann sum of path(x)/x over the grid cells in (eps, t].

    ``eps`` defaults to the first grid cell's width, i.e. the smallest
    truncation the grid can express.  Each grid time u in (eps, t] contributes
    path(u)/u times its cell width; the singular left end is simply cut away,
    which is harmless for paths vanishing at 0 faster than x**g, g > 0.
    """
    if eps is None:
        eps = float(path.times[1] - path.times[0])
    if not (0.0 < eps < t <= 1.0):
        raise ValueError(f"need 0 < eps < t <= 1, got eps={eps}, t={t}")
    times = path.times
    inside = (times > eps) & (times <= t)
    inside[0] = False
    if not inside.any():
        return 0.0
    idx = np.nonzero(inside)[0]
    widths = times[idx] - times[idx - 1]
    return float(np.sum(path.values[idx] / times[idx] * widths))


def limit_law(alpha: float, beta: float, t: float, f_prime: float) -> StableParams:
    """Law of f'(mu) * integral of L(x)/x over (0, t]: stable with index alpha,
    dispersion |f'|**alpha * gamma(alpha+1) * t, and beta flipped with the
    sign of f'.  Degenerate f' = 0 is rejected."""
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must be in (1, 2], got {alpha}")
    if not (-1.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [-1, 1], got {beta}")
    if not (0.0 < t <= 1.0):
        raise ValueError(f"t must be in (0, 1], got {t}")
    if not math.isfinite(f_prime):
        raise ValueError(f"f_prime must be finite, got {f_prime}")
    if f_prime == 0.0:
        raise ValueError("f_prime = 0 makes the limit law degenerate at 0")
    return StableParams(
        alpha=alpha,
        beta=beta if f_prime > 0.0 else -beta,
        dispersion=abs(f_prime) ** alpha * math.gamma(alpha + 1.0) * t,
        location=0.0,
    )
