"""Counter-based random streams.

Every simulation entry point in this package takes either an integer seed or a
ready ``numpy.random.Generator``.  Integer seeds are expanded into Philox
(counter-based) streams, and replicated campaigns derive one sub-stream per
replicate from ``(seed, label, replicate)``.  Replicate r therefore sees the
same bits no matter how replicates are chunked or ordered.

The stream at address ``(seed, *path)`` is numpy's own
``Generator(Philox(SeedSequence(seed, spawn_key=path)))``, so it can
``spawn()``: its children are the streams at ``(seed, *path, 0)``,
``(seed, *path, 1)``, ...  The seed is one 64-bit integer and each path
component one 32-bit word, so distinct addresses give ``SeedSequence``
distinct entropy.
Every Monte Carlo replicate of the package is drawn through
:func:`_replicates`, which stores replicate r's values in row r of one
matrix.  It keys the replicate indices a block at a time: it takes the
prefix's pool from ``SeedSequence`` and mixes the indices into it
(:func:`_stir`, :func:`_key`) on numpy arrays, with the bits :func:`stream`
gives each one, and re-keys one shared generator for each row.

The input checks the simulation entry points share (counts, seeds among
them, real parameters, sample arrays, float powers) live here too, so each is
written once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MAX_SEED", "stream", "as_generator"]

# Seeds are 64-bit by contract; SeedSequence would accept more but campaign
# reports store them as plain integers.
MAX_SEED = 2**64 - 1


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


def _power(base: float, exponent: float, name: str) -> float:
    """``base ** exponent`` in float arithmetic, where an overflow raises
    ``OverflowError``; it is refused instead with a ``ValueError`` naming the
    derived constant ``name``."""
    try:
        return base**exponent
    except OverflowError:
        raise ValueError(f"{name} = {base!r}**{exponent!r} overflows") from None


def _as_finite(x, name: str) -> np.ndarray:
    """``x`` as a float array of any shape; refuses NaN and +-inf with a
    ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _as_samples(x, name: str) -> np.ndarray:
    """``x`` as a float array; refuses anything but a nonempty finite 1-d
    sequence with a ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    return _as_finite(x, name)


def _seed_sequence(seed, path) -> np.random.SeedSequence:
    """``SeedSequence(seed, spawn_key=path)`` once the address is checked: a
    seed in [0, 2**64) and path components in [0, 2**32), each refused
    otherwise with a ``ValueError``."""
    seed = _check_count(seed, "seed", 0)
    if seed > MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    words = []
    for p in path:
        p = _check_count(p, "stream path component", 0)
        if p >= 2**32:
            raise ValueError(f"stream path component must be in [0, 2**32), got {p}")
        words.append(p)
    return np.random.SeedSequence(seed, spawn_key=words)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the hash
# constants of mixing in and of generating state, and the multipliers of
# mixing two pool words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Replicate indices are keyed this many at a time, so memory stays bounded.
_KEY_BLOCK = 2**12


def _hash(value, const: int, mult: int):
    """One step of SeedSequence's running hash of ``value``, a uint64 array
    of 32-bit words, under the constant ``const``: the hash and the next
    constant ``const * mult``."""
    following = (const * mult) & _MASK32
    value = ((value ^ const) * following) & _MASK32
    return value ^ (value >> 16), following


def _mix(x, y):
    """SeedSequence's mix of the pool word ``x`` with the hashed word ``y``."""
    result = (((_MIX_L * x) & _MASK32) - ((_MIX_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _stir(pool: list, word, const: int):
    """Mix a uint64 array of entropy words, one per replicate, into every
    word of ``pool``; the new pools."""
    out = []
    for x in pool:
        hashed, const = _hash(word, const, _MULT_A)
        out.append(_mix(x, hashed))
    return out


def _key(pool: list) -> np.ndarray:
    """``generate_state(2, uint64)`` of ``pool``, arrays of k words each:
    the k Philox keys, shape (k, 2)."""
    const, state = _INIT_B, []
    for x in pool:
        hashed, const = _hash(x, const, _MULT_B)
        state.append(hashed)
    return np.array([state[0] | state[1] << 32, state[2] | state[3] << 32], dtype=np.uint64).T


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the stream addressed by ``(seed, *path)``.

    Same address, same bits; distinct addresses give statistically
    independent Philox streams.  The seed is in [0, 2**64) and each path
    component in [0, 2**32); anything else is refused with a ``ValueError``.
    The generator is ``Generator(Philox(SeedSequence(seed, spawn_key=path)))``,
    so ``spawn(k)`` gives the streams ``(seed, *path, i)`` for i < k.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def _check_reps(reps, minimum: int = 0) -> int:
    """``reps`` as an int in [minimum, 2**32], so each replicate index is one
    32-bit path word; anything else is refused with a ``ValueError``."""
    reps = _check_count(reps, "reps", minimum)
    if reps > 2**32:
        raise ValueError(f"reps must be in [{minimum}, 2**32], got {reps}")
    return reps


def _replicates(seed: int, prefix: tuple, reps: int, row, width: int = 1) -> np.ndarray:
    """The (reps, width) matrix whose row r is ``row(g)``, where g draws the
    bits of ``stream(seed, *prefix, r)``; ``row`` returns a float or ``width``
    floats.

    The address and ``reps`` are checked before anything is allocated.  The
    keys are derived a block of replicate indices at a time, in numpy, and g
    is one and the same Generator, re-keyed before each row: it has no
    ``SeedSequence`` and its ``spawn()`` raises numpy's ``TypeError``.
    """
    reps = _check_reps(reps)
    pool = _seed_sequence(seed, prefix).pool.tolist()
    # SeedSequence has hashed 4 words to fill its pool, 12 to cross-mix it
    # and 4 per word past the pool: one per prefix component, as it pads the
    # seed to the 4 pool words.
    const = _INIT_A * pow(_MULT_A, 16 + 4 * len(prefix), 2**32) & _MASK32
    out = np.empty((reps, width))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # counter 0, and nothing buffered: no Philox block, no spare 32-bit half
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for start in range(0, reps, _KEY_BLOCK):
        index = np.arange(start, min(start + _KEY_BLOCK, reps), dtype=np.uint64)
        for r, key in enumerate(_key(_stir(pool, index, const)), start):
            state["state"]["key"] = key
            bitgen.state = state
            out[r] = row(gen)
    return out


def as_generator(seed) -> np.random.Generator:
    """Pass a Generator through; expand an integer seed into its root stream."""
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(seed)
