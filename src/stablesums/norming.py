"""Norming pairs at one n, Karamata sums, and mean-deviation estimates.

Every input family in ``paths`` gives its own sequences as ``spec.a(n)`` and
``spec.b(n)``; this module evaluates them and the sums built on them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .rng import _check_count, streams
from .paths import DoaSpec, sample_doa

__all__ = [
    "MeanAbsDeviation",
    "norming_sequence",
    "karamata_partial_sum",
    "mean_abs_deviation",
]


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
    for r, rng in enumerate(streams(seed, count=reps)):
        x = sample_doa(spec, rng, k)
        devs[r] = abs(float(np.sum(x - mu)))
    return MeanAbsDeviation(
        estimate=float(devs.mean()),
        stderr=float(devs.std(ddof=1) / math.sqrt(reps)),
    )
