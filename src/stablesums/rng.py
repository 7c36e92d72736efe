"""Counter-based random streams.

Every simulation entry point in this package takes either an integer seed or a
ready ``numpy.random.Generator``.  Integer seeds are expanded into Philox
(counter-based) streams, and replicated campaigns derive one sub-stream per
replicate from ``(seed, label, replicate)``.  Replicate r therefore sees the
same bits no matter how replicates are chunked or ordered.

The stream at address ``(seed, *path)`` is the Philox generator keyed by
``numpy.random.SeedSequence(seed, spawn_key=path).generate_state(2, uint64)``
with its counter at 0.  That key is a fixed hash of the address words, and
this module computes it itself (:func:`_absorb`, :func:`_stir`, :func:`_key`),
on Python ints for one address and on numpy arrays for a run of replicate
indices, so :func:`streams` keys thousands of replicates in one vectorized
pass with the bits :func:`stream` gives each one.  No ``SeedSequence`` is
kept, so ``spawn()`` on a generator from this module raises numpy's
``TypeError``; derive a sub-stream by extending its address instead.

The input checks the simulation entry points share (counts, seeds among
them, real parameters, sample arrays, float powers) live here too, so each is
written once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MAX_SEED", "stream", "streams", "as_generator"]

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


def _as_samples(x, name: str) -> np.ndarray:
    """``x`` as a float array; refuses anything but a nonempty finite 1-d
    sequence with a ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): its pool
# of 4 words, the hash constants of mixing in and of generating state, and
# the multipliers of mixing two pool words.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Replicate indices are keyed this many at a time, so memory stays bounded.
_KEY_BLOCK = 2**12


def _words(value: int) -> list:
    """``value`` >= 0 as little-endian 32-bit words, ``[0]`` for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash(value, const: int, mult: int):
    """One step of SeedSequence's running hash of ``value``, an int or a
    uint64 array of 32-bit words, under the constant ``const``: the hash and
    the next constant ``const * mult``."""
    following = (const * mult) & _MASK32
    value = ((value ^ const) * following) & _MASK32
    return value ^ (value >> 16), following


def _mix(x, y):
    """SeedSequence's mix of the pool word ``x`` with the hashed word ``y``."""
    result = (((_MIX_L * x) & _MASK32) - ((_MIX_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _stir(pool: list, word, const: int):
    """Mix one entropy word (an int, or a uint64 array of them) into every
    word of ``pool``; the new pool and the running hash constant."""
    out = []
    for x in pool:
        hashed, const = _hash(word, const, _MULT_A)
        out.append(_mix(x, hashed))
    return out, const


def _absorb(seed, path) -> tuple:
    """The pool and hash constant of ``SeedSequence(seed, spawn_key=path)``
    after it has mixed in every word: the seed's words padded with zeros to
    the pool size, then each path component's words."""
    seed = _check_count(seed, "seed", 0)
    if seed > MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    words = _words(seed)
    words += [0] * (_POOL - len(words))
    for p in path:
        words += _words(_check_count(p, "stream path component", 0))
    const = _INIT_A
    pool = []
    for w in words[:_POOL]:
        hashed, const = _hash(w, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for w in words[_POOL:]:
        pool, const = _stir(pool, w, const)
    return pool, const


def _key(pool: list) -> np.ndarray:
    """``generate_state(2, uint64)`` of ``pool``: the Philox key, shape (2,)
    for int pool words, (k, 2) for arrays of k."""
    const, state = _INIT_B, []
    for x in pool:
        hashed, const = _hash(x, const, _MULT_B)
        state.append(hashed)
    return np.array([state[0] | state[1] << 32, state[2] | state[3] << 32], dtype=np.uint64).T


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the stream addressed by ``(seed, *path)``.

    Same address, same bits; distinct addresses give statistically
    independent Philox streams.  The seed is in [0, 2**64) and each path
    component an integer >= 0; anything else is refused with a
    ``ValueError``.  The bits are those of
    ``Generator(Philox(SeedSequence(seed, spawn_key=path)))``, but the
    generator has no ``SeedSequence``, so its ``spawn()`` raises numpy's
    ``TypeError``.
    """
    pool, _ = _absorb(seed, path)
    return np.random.Generator(np.random.Philox(key=_key(pool)))


def streams(seed: int, *prefix: int, count: int):
    """The generators of ``stream(seed, *prefix, r)`` for r = 0..count-1, in
    order, with the same bits.

    The address is checked here; the keys are derived lazily, a block of
    replicate indices at a time, in numpy.  Every item is one and the same
    Generator, re-keyed before it is yielded, so draw from each item before
    taking the next.  ``count`` is at most 2**32, so each index is one
    32-bit word.
    """
    count = _check_count(count, "count", 0)
    if count > 2**32:
        raise ValueError(f"count must be in [0, 2**32], got {count}")
    pool, const = _absorb(seed, prefix)
    return _rekeyed(pool, const, count)


def _rekeyed(pool: list, const: int, count: int):
    """The items of :func:`streams`: one Generator whose Philox is given, for
    each index r, the state of a fresh Philox keyed for r."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # counter 0, and nothing buffered: no Philox block, no spare 32-bit half
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for start in range(0, count, _KEY_BLOCK):
        index = np.arange(start, min(start + _KEY_BLOCK, count), dtype=np.uint64)
        for key in _key(_stir(pool, index, const)[0]):
            state["state"]["key"] = key
            bitgen.state = state
            yield gen


def as_generator(seed) -> np.random.Generator:
    """Pass a Generator through; expand an integer seed into its root stream."""
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(seed)
