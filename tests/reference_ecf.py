"""Test-only reference ECF kernel: the power recurrence that
``stablesums.verification._ecf_kernel`` replaced, kept as an oracle for the
digits of its matrix-product sums.

``reference_ecf_sums(t, x)`` steps once through the distinct |t| of an
arithmetic grid, multiplying by exp(i*dt*x) and taking one pairwise sum per
frequency; ``reference_empirical_char_fn(x, t)`` averages it over the same
chunks of 2**14 draws as ``empirical_char_fn``.
"""

import numpy as np

from stablesums.verification import _GRID_ULPS, _cis, _common_step


def reference_ecf_sums(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j exp(i*t_k*x_j) for every frequency t_k of a 1-d grid t.

    On an arithmetic grid t_k = t_0 + k*dt it steps through the grid,
    multiplying by exp(i*dt*x).  When the progression crosses zero inside
    the grid at an integer or half-integer index, it steps once through the
    distinct |t|, from w = 1 when 0 is on the grid and from
    exp(i*|dt|/2*x) otherwise, and gives each negative t the conjugate of
    the sum at its mirror -t.  Any other arithmetic grid starts from
    exp(i*t_0*x); a grid that is not arithmetic takes the outer product.
    """
    dt = _common_step(t)
    if dt is None:
        return _cis(np.outer(t, x)).sum(axis=1)
    k = np.arange(t.size)
    twice_zero = round(-2.0 * (t[0] / dt)) if dt else -1
    if (0 <= twice_zero <= 2 * (t.size - 1)
            and abs(t[0] + 0.5 * twice_zero * dt) <= _GRID_ULPS * np.abs(t).max()):
        index = np.abs(2 * k - twice_zero) // 2
        t0, dt, negative = 0.5 * abs(dt) * (twice_zero % 2), abs(dt), t < 0
    else:
        index, t0, negative = k, t[0], False
    step = _cis(dt * x)
    sums = np.empty(index.max() + 1, dtype=complex)
    if t0 == 0:
        sums[0] = x.size
        w, first = step.copy(), 1
    else:
        w, first = _cis(t0 * x), 0
    sums[first] = w.sum()
    for j in range(first + 1, sums.size):
        w *= step
        sums[j] = w.sum()
    out = sums[index]
    np.conjugate(out, out=out, where=negative)
    return out


def reference_empirical_char_fn(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The mean of exp(i*t*x) over the draws x at the 1-d grid t, summed in
    chunks of 2**14 draws by :func:`reference_ecf_sums`."""
    acc = np.zeros(t.size, dtype=complex)
    for start in range(0, x.size, 2**14):
        acc += reference_ecf_sums(t, x[start : start + 2**14])
    return acc / x.size
