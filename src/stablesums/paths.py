"""Input families, rescaled partial-sum processes, and stable Levy paths.

A :class:`DoaSpec` bundles one iid input family with the constants its limit
statements need: the mean ``known_mu``, the stable index ``known_alpha`` of
the law its centered partial sums are attracted to, the skewness
``known_beta``, and a ``positivity`` flag (whether every draw is > 0, which
the product statistics require).  Its ``a(n)`` and ``b(n)`` are the
sequences such that (S_n - b_n) / a_n converges to the unit-dispersion stable
law S(known_alpha, known_beta, 1, 0): b_n = n * known_mu, and a_n is
n**(1/known_alpha) times the family's ``scale`` (sigma * sqrt(n) in the
finite-variance cases).

The heavy-tail constant comes from the jump-measure limit: if
P(X > x) ~ c_plus * x**-alpha and P(X < -x) ~ c_minus * x**-alpha with
alpha in (1, 2), the centered sums scaled by n**(1/alpha) converge to the
stable law with dispersion ``tail_dispersion(alpha, c_plus, c_minus)`` and
beta = (c_plus - c_minus)/(c_plus + c_minus); dividing by
(n * dispersion)**(1/alpha) renormalizes that to dispersion 1.

Step paths live on a uniform grid over [0, 1].  ``values[i]`` is the value on
``[times[i], times[i+1])`` and ``values[-1]`` the value at t = 1, so paths are
right-continuous and evaluation is defined on all of [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import _as_samples, _check_count, _check_real, as_generator
from .stable import StableParams, sample

__all__ = [
    "Exponential",
    "Pareto",
    "TwoSidedPareto",
    "ExactStable",
    "Degenerate",
    "DoaSpec",
    "exponential",
    "pareto",
    "exact_stable",
    "two_sided_pareto",
    "degenerate",
    "tail_dispersion",
    "SamplePath",
    "sample_doa",
    "partial_sum_process",
    "simulate_levy_path",
]

DEFAULT_GRID = 2**12


def tail_dispersion(alpha: float, c_plus: float, c_minus: float) -> float:
    """Dispersion of the stable limit attached to power tails (see module
    docstring); alpha in (1, 2), tail constants nonnegative, not both zero."""
    _check_real(alpha, "alpha", 1.0, 2.0)
    _check_real(c_plus, "c_plus", 0.0, ends="[)")
    _check_real(c_minus, "c_minus", 0.0, ends="[)")
    if c_plus + c_minus == 0.0:
        raise ValueError("tail constants must not both be zero")
    return (
        (c_plus + c_minus)
        * math.gamma(2.0 - alpha)
        * abs(math.cos(math.pi * alpha / 2.0))
        / (alpha - 1.0)
    )


# Each family checks its parameters, draws with ``draw(rng, n)``, and gives in
# ``scale`` the constant of its norming a_n = scale * n**(1/alpha).
@dataclass(frozen=True)
class Exponential:
    rate: float = 1.0

    def __post_init__(self):
        _check_real(self.rate, "rate", 0.0)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_exponential(n) / self.rate

    @property
    def scale(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class Pareto:
    # Survival (x_min/x)**tail_index on [x_min, inf), then shifted.
    tail_index: float
    x_min: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        _check_real(self.tail_index, "tail_index", 1.0)
        if self.tail_index == 2.0:
            raise ValueError("tail_index 2 has no registered norming formula")
        _check_real(self.x_min, "x_min", 0.0)
        _check_real(self.shift, "shift")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Inverse CDF; 1 - U lies in (0, 1] so the magnitude never overflows.
        u = rng.random(n)
        return self.x_min * (1.0 - u) ** (-1.0 / self.tail_index) + self.shift

    @property
    def scale(self) -> float:
        ti = self.tail_index
        if ti < 2.0:
            d = tail_dispersion(ti, self.x_min**ti, 0.0)
            return d ** (1.0 / ti)
        var = ti * self.x_min**2 / ((ti - 1.0) ** 2 * (ti - 2.0))
        return math.sqrt(var)


@dataclass(frozen=True)
class TwoSidedPareto:
    # Two Pareto tails from |x| >= 1; right tail carries mass (1+asymmetry)/2.
    tail_index: float
    asymmetry: float = 0.0

    def __post_init__(self):
        _check_real(self.tail_index, "tail_index", 1.0, 2.0)
        _check_real(self.asymmetry, "asymmetry", -1.0, 1.0, "[]")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        magnitude = (1.0 - rng.random(n)) ** (-1.0 / self.tail_index)
        right = rng.random(n) < (1.0 + self.asymmetry) / 2.0
        return np.where(right, magnitude, -magnitude)

    @property
    def scale(self) -> float:
        ti = self.tail_index
        p_right = (1.0 + self.asymmetry) / 2.0
        d = tail_dispersion(ti, p_right, 1.0 - p_right)
        return d ** (1.0 / ti)


@dataclass(frozen=True)
class ExactStable:
    params: StableParams

    def __post_init__(self):
        _check_real(self.params.alpha, "alpha", 1.0, 2.0, "(]")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return sample(self.params, rng, n)

    @property
    def scale(self) -> float:
        p = self.params
        return p.dispersion ** (1.0 / p.alpha)


@dataclass(frozen=True)
class Degenerate:
    # Point mass; the trivial end of every diagnostic.
    value: float

    def __post_init__(self):
        _check_real(self.value, "value")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    @property
    def scale(self) -> float:
        # Any scaling works for a point mass; sqrt(n) keeps ratios finite.
        return 1.0


_FAMILIES = (Exponential, Pareto, TwoSidedPareto, ExactStable, Degenerate)


@dataclass(frozen=True)
class DoaSpec:
    """One iid input family plus its declared limit constants."""

    family: Exponential | Pareto | TwoSidedPareto | ExactStable | Degenerate
    known_mu: float
    known_alpha: float
    known_beta: float
    positivity: bool

    def __post_init__(self):
        if not isinstance(self.family, _FAMILIES):
            raise TypeError(f"unknown family {type(self.family).__name__}")
        _check_real(self.known_alpha, "known_alpha", 1.0, 2.0, "(]")
        _check_real(self.known_beta, "known_beta", -1.0, 1.0, "[]")
        _check_real(self.known_mu, "known_mu")

    def a(self, n):
        """Scaling a_n = scale * n**(1/known_alpha) at a scalar or an integer array n."""
        return self.family.scale * np.asarray(n, dtype=float) ** (1.0 / self.known_alpha)

    def b(self, n):
        """Centering b_n = n * known_mu at a scalar or an integer array n."""
        return np.asarray(n, dtype=float) * self.known_mu


def exponential(rate: float = 1.0) -> DoaSpec:
    """Exponential(rate): finite variance, so the attracting index is 2."""
    return DoaSpec(
        family=Exponential(rate),
        known_mu=1.0 / rate,
        known_alpha=2.0,
        known_beta=0.0,
        positivity=True,
    )


def pareto(tail_index: float, x_min: float = 1.0, shift: float = 0.0) -> DoaSpec:
    """Pareto tail: index in (1,2) is attracted to a fully right-skewed stable
    law of the same index; index > 2 has finite variance (index exactly 2 is
    rejected, its norming needs a slowly varying factor this package does not
    carry)."""
    family = Pareto(tail_index, x_min, shift)
    mean = tail_index * x_min / (tail_index - 1.0) + shift
    heavy = tail_index < 2.0
    return DoaSpec(
        family=family,
        known_mu=mean,
        known_alpha=tail_index if heavy else 2.0,
        known_beta=1.0 if heavy else 0.0,
        positivity=x_min + shift > 0.0,
    )


def two_sided_pareto(tail_index: float, asymmetry: float = 0.0) -> DoaSpec:
    """Pareto tails on both sides of the origin; asymmetry in [-1, 1] is the
    tail-mass imbalance and lands directly in the limit's beta."""
    family = TwoSidedPareto(tail_index, asymmetry)
    mean = asymmetry * tail_index / (tail_index - 1.0)
    return DoaSpec(
        family=family,
        known_mu=mean,
        known_alpha=tail_index,
        known_beta=asymmetry,
        positivity=asymmetry == 1.0,
    )


def exact_stable(params: StableParams) -> DoaSpec:
    """Stable inputs are their own attractor; requires alpha > 1 so the mean
    exists (and equals the location parameter)."""
    return DoaSpec(
        family=ExactStable(params),
        known_mu=params.location,
        known_alpha=params.alpha,
        known_beta=params.beta,
        positivity=False,
    )


def degenerate(value: float) -> DoaSpec:
    """Point mass at ``value``: every centered partial sum is exactly zero."""
    return DoaSpec(
        family=Degenerate(value),
        known_mu=value,
        known_alpha=2.0,
        known_beta=0.0,
        positivity=value > 0.0,
    )


def sample_doa(spec: DoaSpec, seed, n: int) -> np.ndarray:
    """Draw ``n`` iid variates from the spec's family."""
    n = _check_count(n, "n", 0)
    return spec.family.draw(as_generator(seed), n)


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Right-continuous step function on the grid ``times`` over [0, 1]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size < 2:
            raise ValueError("a path needs at least the two endpoints 0 and 1")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("grid times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")

    def at(self, t):
        """Path value at ``t`` (scalar or array), t in [0, 1]."""
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValueError("t must lie in [0, 1]")
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = self.values[idx]
        if out.ndim == 0:
            return float(out)
        return out

    __call__ = at


def _partial_sums(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """S_0 = 0, S_1, ..., S_n of the draws ``x`` into ``out`` (length n + 1).

    One O(1) check guards the whole array: an inf or nan draw, or an
    overflow, leaves every later partial sum non-finite, so S_n is finite
    exactly when every S_k is.
    """
    out[0] = 0.0
    np.cumsum(x, out=out[1:])
    if not math.isfinite(out[-1]):
        raise ValueError("partial sums must be finite: a draw is inf or nan, or the sum overflows")
    return out


def _increment_law(alpha: float, beta: float, grid: int) -> StableParams:
    """Law of one increment of stable Levy motion over a cell of width 1/grid."""
    return StableParams(alpha, beta, dispersion=1.0 / grid)


def partial_sum_process(x, mu: float, a_n: float, grid: int = DEFAULT_GRID) -> SamplePath:
    """Rescaled partial-sum step path of the sequence ``x``.

    Grid time j/grid carries (S_k - k*mu) / a_n with k = floor(n*j/grid),
    computed in exact integer arithmetic; t = 0 carries the empty sum 0 and
    t = 1 the fully centered sum.
    """
    x = _as_samples(x, "x")
    _check_real(mu, "mu")
    _check_real(a_n, "a_n", 0.0)
    n, m = x.size, _check_count(grid, "grid", 1)
    sums = _partial_sums(x, np.empty(n + 1))
    j = np.arange(m + 1)
    k = n * j // m
    values = (sums[k] - k * mu) / a_n
    return SamplePath(times=j / m, values=values)


def simulate_levy_path(alpha: float, beta: float, seed, grid: int = DEFAULT_GRID) -> SamplePath:
    """Stable Levy motion on [0, 1] sampled at grid times j/grid.

    Increments over cells of width h are independent draws with dispersion h,
    so every dyadic marginal is exact: the value at time t is distributed with
    dispersion t, and grid refinement changes nothing in law.
    """
    m = _check_count(grid, "grid", 1)
    _check_real(alpha, "alpha", 1.0, 2.0, "(]")
    increments = sample(_increment_law(alpha, beta, m), seed, m)
    values = _partial_sums(increments, np.empty(m + 1))
    return SamplePath(times=np.arange(m + 1) / m, values=values)
