"""Input families, rescaled partial-sum processes, and stable Levy paths.

Each iid input family (:class:`Exponential`, :class:`Pareto`,
:class:`TwoSidedPareto`, :class:`ExactStable`, :class:`Degenerate`) is a
:class:`DoaSpec`: it holds only its own parameters and derives from them the
constants its limit statements need, so none can disagree with the input.
These are the mean ``known_mu``, the stable index ``known_alpha`` of the law
its centered partial sums are attracted to, the skewness ``known_beta``, a
``positivity`` flag (whether every draw is > 0, which the log transform and
the product statistics require) and the norming constant ``scale``.  Its
``a(n)`` and ``b(n)`` are the sequences such that (S_n - b_n) / a_n
converges to the unit-dispersion stable law S(known_alpha, known_beta, 1, 0):
b_n = n * known_mu, and a_n = scale * n**(1/known_alpha) (sigma * sqrt(n) in
the finite-variance cases); a value beyond the float range is refused with a
``ValueError`` that names it.  ``norming_sequence`` gives the pair at one n,
``karamata_partial_sum`` sums a(k)/k, and ``mean_abs_deviation`` estimates
E|S_k - k*mu| by Monte Carlo.

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
from typing import NamedTuple

import numpy as np

from .rng import (_as_samples, _check_count, _check_real, _check_reps, _power, _replicates,
                  as_generator)
from .stable import StableParams, sample

__all__ = [
    "Exponential",
    "Pareto",
    "TwoSidedPareto",
    "ExactStable",
    "Degenerate",
    "DoaSpec",
    "tail_dispersion",
    "SamplePath",
    "sample_doa",
    "norming_sequence",
    "karamata_partial_sum",
    "mean_abs_deviation",
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


@dataclass(frozen=True)
class DoaSpec:
    """Base of the input families (see the module docstring); it refuses a
    family whose mean is not finite or whose scale is not finite and > 0."""

    def __post_init__(self):
        _check_real(self.known_mu, "known_mu")
        _check_real(self.scale, "scale", 0.0)

    def a(self, n):
        """Scaling a_n = scale * n**(1/known_alpha) at a scalar or an integer array n."""
        with np.errstate(all="ignore"):
            a_n = self.scale * np.asarray(n, dtype=float) ** (1.0 / self.known_alpha)
        return _finite_norming(a_n, n, "a_n")

    def b(self, n):
        """Centering b_n = n * known_mu at a scalar or an integer array n."""
        with np.errstate(all="ignore"):
            b_n = np.asarray(n, dtype=float) * self.known_mu
        return _finite_norming(b_n, n, "b_n")


def _finite_norming(values, n, name: str):
    """``values`` of the norming ``name`` at ``n``; one that overflows is
    refused with a ``ValueError`` naming it and the first such n."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{name} overflows at n={np.ravel(n)[np.argmax(bad)]}")
    return values


@dataclass(frozen=True)
class Exponential(DoaSpec):
    """Exponential(rate): finite variance, so the attracting index is 2."""

    rate: float = 1.0
    known_alpha = 2.0
    known_beta = 0.0
    positivity = True

    def __post_init__(self):
        _check_real(self.rate, "rate", 0.0)
        super().__post_init__()

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.standard_exponential(n)
        if self.rate != 1.0:   # x / 1.0 is x, bit for bit
            x /= self.rate
        return x

    @property
    def known_mu(self) -> float:
        return 1.0 / self.rate

    @property
    def scale(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class Pareto(DoaSpec):
    """Survival (x_min/x)**tail_index on [x_min, inf), then shifted.

    A tail index in (1, 2) is attracted to a fully right-skewed stable law of
    the same index; an index > 2 has finite variance.  Index 2 is refused:
    its norming needs a slowly varying factor this package does not carry.
    """

    tail_index: float
    x_min: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        _check_real(self.tail_index, "tail_index", 1.0)
        if self.tail_index == 2.0:
            raise ValueError("tail_index 2 has no registered norming formula")
        _check_real(self.x_min, "x_min", 0.0)
        _check_real(self.shift, "shift")
        super().__post_init__()

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Inverse CDF; 1 - U lies in (0, 1] so the magnitude never overflows.
        x = rng.random(n)
        np.subtract(1.0, x, out=x)
        x **= -1.0 / self.tail_index
        # 1.0 * x and x + 0.0 are x, bit for bit (x >= 1 is never -0.0)
        if self.x_min != 1.0:
            np.multiply(self.x_min, x, out=x)
        if self.shift != 0.0:
            x += self.shift
        return x

    @property
    def known_mu(self) -> float:
        return self.tail_index * self.x_min / (self.tail_index - 1.0) + self.shift

    @property
    def known_alpha(self) -> float:
        return self.tail_index if self.tail_index < 2.0 else 2.0

    @property
    def known_beta(self) -> float:
        return 1.0 if self.tail_index < 2.0 else 0.0

    @property
    def positivity(self) -> bool:
        return self.x_min + self.shift > 0.0

    @property
    def scale(self) -> float:
        ti = self.tail_index
        power, name = (ti, "x_min**tail_index") if ti < 2.0 else (2, "x_min**2")
        tail = _power(self.x_min, power, name)
        if tail == 0.0:   # the power underflows; the scale is linear in x_min
            return self.x_min * Pareto(ti).scale
        if ti < 2.0:
            return tail_dispersion(ti, tail, 0.0) ** (1.0 / ti)
        return math.sqrt(ti * tail / ((ti - 1.0) ** 2 * (ti - 2.0)))


@dataclass(frozen=True)
class TwoSidedPareto(DoaSpec):
    """Two Pareto tails from |x| >= 1; the right tail carries mass
    (1+asymmetry)/2, and asymmetry in [-1, 1] is the limit's beta."""

    tail_index: float
    asymmetry: float = 0.0

    def __post_init__(self):
        _check_real(self.tail_index, "tail_index", 1.0, 2.0)
        _check_real(self.asymmetry, "asymmetry", -1.0, 1.0, "[]")
        super().__post_init__()

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = Pareto(self.tail_index).draw(rng, n)
        left = rng.random(n) >= (1.0 + self.asymmetry) / 2.0
        np.negative(x, out=x, where=left)
        return x

    @property
    def known_mu(self) -> float:
        return self.asymmetry * self.tail_index / (self.tail_index - 1.0)

    @property
    def known_alpha(self) -> float:
        return self.tail_index

    @property
    def known_beta(self) -> float:
        return self.asymmetry

    @property
    def positivity(self) -> bool:
        return self.asymmetry == 1.0

    @property
    def scale(self) -> float:
        ti = self.tail_index
        p_right = (1.0 + self.asymmetry) / 2.0
        d = tail_dispersion(ti, p_right, 1.0 - p_right)
        return d ** (1.0 / ti)


@dataclass(frozen=True)
class ExactStable(DoaSpec):
    """Stable inputs are their own attractor; alpha > 1 so the mean exists
    (and equals the location parameter)."""

    params: StableParams
    positivity = False

    def __post_init__(self):
        _check_real(self.params.alpha, "alpha", 1.0, 2.0, "(]")
        super().__post_init__()

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return sample(self.params, rng, n)

    @property
    def known_mu(self) -> float:
        return self.params.location

    @property
    def known_alpha(self) -> float:
        return self.params.alpha

    @property
    def known_beta(self) -> float:
        return self.params.beta

    @property
    def scale(self) -> float:
        p = self.params
        return p.dispersion ** (1.0 / p.alpha)


@dataclass(frozen=True)
class Degenerate(DoaSpec):
    """Point mass at ``value``: every centered partial sum is exactly zero,
    the trivial end of every diagnostic."""

    value: float
    known_alpha = 2.0
    known_beta = 0.0

    def __post_init__(self):
        _check_real(self.value, "value")
        super().__post_init__()

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    @property
    def known_mu(self) -> float:
        return self.value

    @property
    def positivity(self) -> bool:
        return self.value > 0.0

    @property
    def scale(self) -> float:
        # Any scaling works for a point mass; sqrt(n) keeps ratios finite.
        return 1.0


def sample_doa(spec: DoaSpec, seed, n: int) -> np.ndarray:
    """Draw ``n`` iid variates from the spec's family."""
    n = _check_count(n, "n", 0)
    return spec.draw(as_generator(seed), n)


def norming_sequence(spec: DoaSpec, n: int) -> tuple[float, float]:
    """(a_n, b_n) at one n >= 1."""
    n = _check_count(n, "n", 1)
    return float(spec.a(n)), float(spec.b(n))


def karamata_partial_sum(a, n: int) -> float:
    """Direct evaluation of sum_{k=1..n} a(k)/k, no closed form applied.

    ``a`` is a callable on integer arrays, such as ``spec.a``.  For
    regularly varying a(k) ~ k**g * slowly_varying, g > 0, this sum grows like
    a(n)/g, which is what the boundedness diagnostics lean on.
    """
    n = _check_count(n, "n", 1)
    total = 0.0
    # Chunked so n in the tens of millions stays cheap on memory.
    for start in range(1, n + 1, 2**20):
        k = np.arange(start, min(start + 2**20, n + 1))
        total += float(np.sum(a(k) / k))
    return total


def _standard_error(values: np.ndarray) -> np.ndarray:
    """The standard error of the mean of each column of ``values`` (of all
    of a 1-d array): the sample standard deviation over sqrt(rows).

    Where that is not finite only because the squared deviations overflow,
    each column is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1), which is exact; elsewhere the bits are those of
    the unscaled formula.
    """
    count = math.sqrt(values.shape[0])
    with np.errstate(all="ignore"):
        stderr = values.std(axis=0, ddof=1) / count
        if np.isfinite(stderr).all() or not np.isfinite(values).all():
            return stderr
        _, exponent = np.frexp(np.abs(values).max(axis=0))
        return np.ldexp(np.ldexp(values, -exponent).std(axis=0, ddof=1) / count, exponent)


class MeanAbsDeviation(NamedTuple):
    estimate: float
    stderr: float


def mean_abs_deviation(spec: DoaSpec, k: int, reps: int, seed) -> MeanAbsDeviation:
    """Monte Carlo estimate of E|S_k - k*mu| with its standard error.

    Replicate r draws from the sub-stream (seed, r), through
    :func:`~stablesums.rng._replicates` as every campaign does, so the
    estimate does not depend on how the replicates are chunked or ordered.
    For indices alpha < 2 the summand has infinite variance; the reported
    standard error is then the usual finite-sample estimate and should be
    read qualitatively; it is taken at a power-of-two scale where the squared
    deviations overflow.  An estimate or standard error that is not finite (a
    draw or a sum overflows) is refused with a ``ValueError``.
    """
    k = _check_count(k, "k", 1)
    reps = _check_reps(reps, 2)
    mu = spec.known_mu
    with np.errstate(all="ignore"):   # checked below
        devs = _replicates(seed, (), reps, lambda rng: sample_doa(spec, rng, k),
                           lambda x: abs(np.sum(x - mu)))
        estimate, stderr = devs.mean(), _standard_error(devs[:, 0])
    if not np.isfinite([estimate, stderr]).all():
        raise ValueError("the mean absolute deviation E|S_k - k*mu| or its standard error "
                         "is not finite: a draw or a sum overflows")
    return MeanAbsDeviation(estimate=float(estimate), stderr=float(stderr))


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


def _partial_sums(x: np.ndarray, out: np.ndarray, name: str = "partial sums") -> np.ndarray:
    """S_0 = 0, S_1, ..., S_n of the draws ``x`` into ``out`` (length n + 1).

    The sum runs with numpy's floating-point errors silenced, whatever the
    caller's ``np.errstate``, and one O(1) check guards the whole array: an
    inf or nan draw, or an overflow, leaves every later partial sum
    non-finite, so S_n is finite exactly when every S_k is.  Sums that are
    not are refused with a ``ValueError`` that calls them ``name``, and
    with no warning.
    """
    out[0] = 0.0
    with np.errstate(all="ignore"):
        np.cumsum(x, out=out[1:])
    if not math.isfinite(out[-1]):
        raise ValueError(f"{name} must be finite: a draw is inf or nan, or the sum overflows")
    return out


def _increment_law(alpha: float, beta: float, grid: int) -> StableParams:
    """Law of one increment of stable Levy motion over a cell of width 1/grid."""
    return StableParams(alpha, beta, dispersion=1.0 / grid)


def partial_sum_process(x, mu: float, a_n: float, grid: int = DEFAULT_GRID) -> SamplePath:
    """Rescaled partial-sum step path of the sequence ``x``.

    Grid time j/grid carries (S_k - k*mu) / a_n, k = floor(n*j/grid) in exact
    integer arithmetic, summed from the centered draws x_i - mu, so draws equal
    to mu give exactly 0; t = 0 carries the empty sum 0 and t = 1 the full sum.
    """
    x = _as_samples(x, "x")
    _check_real(mu, "mu")
    _check_real(a_n, "a_n", 0.0)
    n, m = x.size, _check_count(grid, "grid", 1)
    j = np.arange(m + 1)
    with np.errstate(all="ignore"):   # sums and values that are not finite are refused
        sums = _partial_sums(x - mu, np.empty(n + 1))
        values = sums[n * j // m] / a_n
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
