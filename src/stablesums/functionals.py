"""Functional statistics of partial sums and their limit laws.

The central object is the step path

    t  ->  (1/a_n) * sum_{k <= floor(n*t)} ( f(S_k / k) - f(mu) ),

whose limit, for smooth f and inputs attracted to index alpha with skewness
beta, is f'(mu) * integral over (0, t] of L(x)/x dx for a stable Levy motion
L.  That integral carries the law S(alpha, beta, gamma(alpha+1) * t, 0) up to
the factor f'(mu), which :func:`limit_law` spells out; products of partial-sum
ratios are the same statistic run through f(x) = mu*log(x/mu) and exponentiated.

The sum up to a cut is taken in aligned blocks of ``_BLOCK`` terms: a running
sum of the blocks' pairwise sums, plus the pairwise sum of the terms of the
cut's own block before it.  So a path value depends only on the draws and its
cut, whichever other cuts are read, and its rounding error grows with the
number of blocks, not of terms (Higham 1993).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .paths import SamplePath, _partial_sums
from .rng import _as_samples, _check_count, _check_real, _power
from .stable import StableParams

__all__ = [
    "DomainError",
    "FunctionSpec",
    "qi_log",
    "functional_statistic",
    "product_statistic",
    "log_product_statistic",
    "integral_riemann",
    "limit_law",
]

# Terms per block of the fclt sum; fixed, so the bits of a value never depend
# on the cuts read beside it.
_BLOCK = 1024


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
        _check_real(self.f_prime_at_mu, "f_prime_at_mu")


def qi_log(mu: float) -> FunctionSpec:
    """f(x) = mu * log(x / mu) on (0, inf); f'(mu) = 1.

    The normalization makes the log of the product statistic literally this
    functional statistic, whatever mu is.  At mu = 1.0 f is ``np.log`` itself,
    which has the bits of 1.0 * log(x / 1.0).
    """
    _check_real(mu, "mu", 0.0)
    return FunctionSpec(
        f=np.log if mu == 1.0 else (lambda x: mu * np.log(x / mu)),
        f_prime_at_mu=1.0,
        domain_check=lambda x: np.asarray(x) > 0.0,
        name=f"qi_log(mu={mu!r})",
    )


def _functional_kernel(fn: FunctionSpec, mu: float, a_n: float, n: int, cuts: np.ndarray):
    """The function taking n draws x to (1/a_n) * sum_{k <= c} of
    f(S_k/k) - f(mu) at each cut c in ``cuts`` (counts in 0..n, in any order,
    repeats allowed).

    The sum up to c is block_cum[c // _BLOCK] plus the pairwise (``ndarray.sum``)
    sum of the terms from (c // _BLOCK) * _BLOCK to c, where block_cum is the
    running sum of the pairwise sums of the aligned full blocks of ``_BLOCK``
    terms.  f is applied to all n averages, so each value depends on x and c
    alone, bit for bit, not on the other cuts.  f(mu) is subtracted only where
    it is not 0.0, which changes no bit.  k, f(mu), the blocks and the buffers
    are built here once; each call returns a fresh array.  A partial-sum
    average outside f's domain raises :class:`DomainError` naming the
    offending k.
    """
    k = np.arange(1, n + 1, dtype=float)
    center = float(np.asarray(fn.f(float(mu))))
    distinct, where = np.unique(np.asarray(cuts), return_inverse=True)
    spans = [(c // _BLOCK, c // _BLOCK * _BLOCK, c) for c in distinct.tolist()]
    full = n // _BLOCK * _BLOCK
    block_cum = np.zeros(n // _BLOCK + 1)
    sums = np.empty(n + 1)
    averages = sums[1:]

    def values(x: np.ndarray) -> np.ndarray:
        _partial_sums(x, sums)
        np.divide(averages, k, out=averages)
        ok = np.asarray(fn.domain_check(averages), dtype=bool)
        if not ok.all():
            i = int(np.argmin(ok)) + 1
            raise DomainError(
                f"partial-sum average at k={i} ({averages[i - 1]!r}) is outside "
                f"the domain of {fn.name}"
            )
        terms = fn.f(averages)
        if center != 0.0:
            terms = terms - center
        np.cumsum(terms[:full].reshape(-1, _BLOCK).sum(axis=1), out=block_cum[1:])
        at = np.array([block_cum[b] + terms[lo:c].sum() for b, lo, c in spans])
        return at[where] / a_n

    return values


def functional_statistic(x, fn: FunctionSpec, mu: float, a_n: float, grid: int) -> SamplePath:
    """Step path of the centered, rescaled f-sums of the sequence ``x``.

    Grid time j/grid carries (1/a_n) * sum_{k <= floor(n*j/grid)} of
    f(S_k/k) - f(mu); the cut floor(n*j/grid) is computed in integer
    arithmetic, and the sum is taken in the block association of
    :func:`_functional_kernel`, so each value depends only on x and its cut.
    A partial-sum average outside f's domain raises :class:`DomainError`
    naming the offending k.

    That association costs one pairwise sum per distinct cut, about 2 µs
    each, so a fine grid is slow: n = 4097 at grid 4096 takes 7.5-8.6 ms on
    a 2-core x86_64, against 0.1 ms at grid 4.
    """
    x = _as_samples(x, "x")
    _check_real(mu, "mu")
    _check_real(a_n, "a_n", 0.0)
    n, m = x.size, _check_count(grid, "grid", 1)
    j = np.arange(m + 1)
    values = _functional_kernel(fn, mu, a_n, n, n * j // m)(x)
    return SamplePath(times=j / m, values=values)


def _log_product_kernel(mu: float, exponent: float, n: int):
    """The function taking n draws x to exponent * sum_k log(S_k / (k*mu)).

    log(k*mu) and the working buffer are built here once; each call works in
    place.  A partial sum that is not positive raises :class:`DomainError`.
    """
    log_kmu = np.log(np.arange(1, n + 1) * mu)
    sums = np.empty(n + 1)
    logs = sums[1:]

    def statistic(x: np.ndarray) -> float:
        _partial_sums(x, sums)
        if not logs.min() > 0.0:
            k = int(np.argmax(logs <= 0.0)) + 1
            raise DomainError(f"partial sum at k={k} is not positive ({logs[k - 1]!r})")
        np.log(logs, out=logs)
        np.subtract(logs, log_kmu, out=logs)
        return float(exponent * logs.sum())

    return statistic


def log_product_statistic(x, mu: float, exponent: float) -> float:
    """exponent * sum_k log(S_k / (k*mu)), the product statistic in log space."""
    x = _as_samples(x, "x")
    _check_real(mu, "mu", 0.0)
    _check_real(exponent, "exponent")
    return _log_product_kernel(mu, exponent, x.size)(x)


def product_statistic(x, mu: float, exponent: float) -> float:
    """prod_k (S_k / (k*mu)) ** exponent, computed in log space throughout; a
    product that overflows is refused with a ``ValueError``."""
    log = log_product_statistic(x, mu, exponent)
    try:
        return math.exp(log)
    except OverflowError:
        raise ValueError(f"the product prod_k (S_k/(k*mu))**exponent = exp({log!r}) "
                         "overflows") from None


def _riemann_kernel(times: np.ndarray, t: float, eps: Optional[float] = None):
    """The function taking path values on the grid ``times`` to the
    right-endpoint Riemann sum of path(u)/u over the grid cells in (eps, t],
    and the eps it uses.

    ``eps`` defaults to the first grid cell's width, the smallest truncation
    the grid can express.  t in (0, 1] and 0 < eps < t, or ``ValueError``;
    ``times`` increases from 0, so those cells are one run of indices
    lo..hi-1 with lo >= 1.  Their right ends and widths are built here once;
    each call overwrites one buffer.
    """
    if eps is None:
        eps = float(times[1] - times[0])
    _check_real(t, "t", 0.0, 1.0, "(]")
    _check_real(eps, "eps")
    if not 0.0 < eps < t:
        raise ValueError(f"need 0 < eps < t, got eps={eps!r}, t={t!r}")
    lo, hi = np.searchsorted(times, [eps, t], side="right")
    ends = times[lo:hi]
    widths = ends - times[lo - 1 : hi - 1]
    terms = np.empty(ends.size)

    def integral(values: np.ndarray) -> float:
        np.divide(values[lo:hi], ends, out=terms)
        np.multiply(terms, widths, out=terms)
        return float(np.sum(terms))

    return integral, eps


def integral_riemann(path: SamplePath, t: float, eps: Optional[float] = None) -> float:
    """Right-endpoint Riemann sum of path(x)/x over the grid cells in (eps, t].

    ``eps`` defaults to the first grid cell's width, i.e. the smallest
    truncation the grid can express.  Each grid time u in (eps, t] contributes
    path(u)/u times its cell width; the singular left end is simply cut away,
    which is harmless for paths vanishing at 0 faster than x**g, g > 0.
    """
    integral, _ = _riemann_kernel(path.times, t, eps)
    return integral(path.values)


def limit_law(alpha: float, beta: float, t: float, f_prime: float) -> StableParams:
    """Law of f'(mu) * integral of L(x)/x over (0, t]: stable with index alpha,
    dispersion |f'|**alpha * gamma(alpha+1) * t, and beta flipped with the
    sign of f'.  Degenerate f' = 0 is rejected."""
    _check_real(alpha, "alpha", 1.0, 2.0, "(]")
    _check_real(beta, "beta", -1.0, 1.0, "[]")
    _check_real(t, "t", 0.0, 1.0, "(]")
    _check_real(f_prime, "f_prime")
    if f_prime == 0.0:
        raise ValueError("f_prime = 0 makes the limit law degenerate at 0")
    return StableParams(
        alpha=alpha,
        beta=beta if f_prime > 0.0 else -beta,
        dispersion=_power(abs(f_prime), alpha, "|f_prime|**alpha")
        * math.gamma(alpha + 1.0) * t,
        location=0.0,
    )
