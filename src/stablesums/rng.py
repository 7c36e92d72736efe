"""Counter-based random streams.

Every simulation entry point in this package takes either an integer seed or a
ready ``numpy.random.Generator``.  Integer seeds are expanded into Philox
(counter-based) streams, and replicated campaigns derive one sub-stream per
replicate from ``(seed, label, replicate)``.  Replicate r therefore sees the
same bits no matter how replicates are chunked or ordered.

The input checks the simulation entry points share (seeds, counts, real
parameters, sample arrays) live here too, so each is written once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MAX_SEED", "stream", "as_generator"]

# Seeds are 64-bit by contract; SeedSequence would accept more but campaign
# reports store them as plain integers.
MAX_SEED = 2**64 - 1


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int; refuses bools, non-integers and values below
    ``minimum`` with a ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_real(value, name: str, low: float = -math.inf, high: float = math.inf,
                ends: str = "()") -> None:
    """Refuse with a ``ValueError`` anything but a finite real number in the
    interval from ``low`` to ``high``, whose brackets ``ends`` gives as in
    "(]".  Bools, NaN and +-inf are refused whatever the interval; the value
    itself is left as it is."""
    ok = (isinstance(value, (int, float, np.integer, np.floating))
          and not isinstance(value, bool)
          and (isinstance(value, (int, np.integer)) or math.isfinite(value))
          and (low < value or (ends[0] == "[" and low == value))
          and (value < high or (ends[1] == "]" and value == high)))
    if not ok:
        shown = value.item() if isinstance(value, np.generic) else value
        raise ValueError(f"{name} must be in {ends[0]}{low:g}, {high:g}{ends[1]}, "
                         f"got {shown!r}")


def _as_samples(x, name: str) -> np.ndarray:
    """``x`` as a float array; refuses anything but a nonempty finite 1-d
    sequence with a ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the stream addressed by ``(seed, *path)``.

    Same address, same bits; distinct addresses give statistically
    independent Philox streams.
    """
    seed = _check_seed(seed)
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def as_generator(seed) -> np.random.Generator:
    """Pass a Generator through; expand an integer seed into its root stream."""
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(seed)
