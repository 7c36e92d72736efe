"""Centering and scaling sequences, with regular-variation diagnostics.

For each registered family this module supplies the sequences (a_n, b_n) such
that (S_n - b_n) / a_n converges to the unit-dispersion stable law
S(known_alpha, known_beta, 1, 0): b_n is always n * known_mu, and a_n is
n**(1/alpha) times the family's tail constant (sigma * sqrt(n) in the
finite-variance cases).

The heavy-tail constant comes from the jump-measure limit: if
P(X > x) ~ c_plus * x**-alpha and P(X < -x) ~ c_minus * x**-alpha with
alpha in (1, 2), the centered sums scaled by n**(1/alpha) converge to the
stable law with dispersion ``tail_dispersion(alpha, c_plus, c_minus)`` and
beta = (c_plus - c_minus)/(c_plus + c_minus); dividing by
(n * dispersion)**(1/alpha) renormalizes that to dispersion 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .rng import _check_count, stream
from .paths import (
    Degenerate,
    DoaSpec,
    ExactStable,
    Exponential,
    Pareto,
    TwoSidedPareto,
    sample_doa,
)

__all__ = [
    "NormingSeq",
    "MeanAbsDeviation",
    "tail_dispersion",
    "norming_for",
    "norming_sequence",
    "karamata_partial_sum",
    "mean_abs_deviation",
]


def tail_dispersion(alpha: float, c_plus: float, c_minus: float) -> float:
    """Dispersion of the stable limit attached to power tails (see module
    docstring); alpha in (1, 2), tail constants nonnegative, not both zero."""
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must be in (1, 2), got {alpha}")
    if c_plus < 0.0 or c_minus < 0.0 or c_plus + c_minus == 0.0:
        raise ValueError("tail constants must be nonnegative and not both zero")
    return (
        (c_plus + c_minus)
        * math.gamma(2.0 - alpha)
        * abs(math.cos(math.pi * alpha / 2.0))
        / (alpha - 1.0)
    )


@dataclass(frozen=True)
class NormingSeq:
    """Scaling/centering pair for one spec; ``a`` and ``b`` accept scalars or
    integer arrays."""

    spec: DoaSpec
    a: Callable
    b: Callable


def _power_scaling(coeff: float, exponent: float) -> Callable:
    def a(n):
        return coeff * np.asarray(n, dtype=float) ** exponent
    return a


def norming_for(spec: DoaSpec) -> NormingSeq:
    """Registered (a_n, b_n) for the spec's family."""
    fam = spec.family
    mu = spec.known_mu
    if isinstance(fam, Exponential):
        a = _power_scaling(1.0 / fam.rate, 0.5)
    elif isinstance(fam, Degenerate):
        # Any scaling works for a point mass; sqrt(n) keeps ratios finite.
        a = _power_scaling(1.0, 0.5)
    elif isinstance(fam, ExactStable):
        p = fam.params
        a = _power_scaling(p.dispersion ** (1.0 / p.alpha), 1.0 / p.alpha)
    elif isinstance(fam, Pareto):
        ti = fam.tail_index
        if ti < 2.0:
            d = tail_dispersion(ti, fam.x_min**ti, 0.0)
            a = _power_scaling(d ** (1.0 / ti), 1.0 / ti)
        else:
            var = ti * fam.x_min**2 / ((ti - 1.0) ** 2 * (ti - 2.0))
            a = _power_scaling(math.sqrt(var), 0.5)
    elif isinstance(fam, TwoSidedPareto):
        ti = fam.tail_index
        p_right = (1.0 + fam.asymmetry) / 2.0
        d = tail_dispersion(ti, p_right, 1.0 - p_right)
        a = _power_scaling(d ** (1.0 / ti), 1.0 / ti)
    else:
        raise TypeError(f"no registered norming formula for {type(fam).__name__}")

    def b(n):
        return np.asarray(n, dtype=float) * mu

    return NormingSeq(spec=spec, a=a, b=b)


def norming_sequence(spec: DoaSpec, n: int) -> tuple[float, float]:
    """(a_n, b_n) at one n >= 1."""
    n = _check_count(n, "n", 1)
    seq = norming_for(spec)
    return float(seq.a(n)), float(seq.b(n))


def karamata_partial_sum(a, n: int) -> float:
    """Direct evaluation of sum_{k=1..n} a(k)/k, no closed form applied.

    ``a`` may be a NormingSeq or a bare callable on integer arrays.  For
    regularly varying a(k) ~ k**g * slowly_varying, g > 0, this sum grows like
    a(n)/g, which is what the boundedness diagnostics lean on.
    """
    n = _check_count(n, "n", 1)
    fn = a.a if isinstance(a, NormingSeq) else a
    total = 0.0
    # Chunked so n in the tens of millions stays cheap on memory.
    for start in range(1, n + 1, 2**20):
        k = np.arange(start, min(start + 2**20, n + 1))
        total += float(np.sum(fn(k) / k))
    return total


class MeanAbsDeviation(NamedTuple):
    estimate: float
    stderr: float


def mean_abs_deviation(spec: DoaSpec, k: int, reps: int, seed) -> MeanAbsDeviation:
    """Monte Carlo estimate of E|S_k - k*mu| with its standard error.

    Replicate r draws from the sub-stream (seed, r), so the estimate does
    not depend on how the replicates are chunked or ordered.  For indices
    alpha < 2 the summand has infinite variance; the reported standard error
    is then the usual finite-sample estimate and should be read
    qualitatively.
    """
    k = _check_count(k, "k", 1)
    reps = _check_count(reps, "reps", 2)
    mu = spec.known_mu
    devs = np.empty(reps)
    for r in range(reps):
        x = sample_doa(spec, stream(seed, r), k)
        devs[r] = abs(float(np.sum(x)) - k * mu)
    return MeanAbsDeviation(
        estimate=float(devs.mean()),
        stderr=float(devs.std(ddof=1) / math.sqrt(reps)),
    )
