"""
Partial sums of heavy-tailed sequences, rescaled into path space
================================================================

"""

import numpy as np

from stablesums import (
    Exponential,
    Pareto,
    norming_sequence,
    partial_sum_process,
    sample_doa,
)
from stablesums.rng import stream

# Each attraction-domain family declares its limit constants up front: the
# mean, the attracting index, the skewness, and whether draws stay positive.
for spec in (Exponential(1.0), Pareto(1.5), Pareto(3.0)):
    print(f"{type(spec).__name__:<12} mu={spec.known_mu:<5} "
          f"alpha={spec.known_alpha:<4} beta={spec.known_beta}")

# Each spec turns those constants into the centering b_n and the
# scaling a_n.  For Pareto(1.5) the scaling grows like n**(2/3), visibly
# faster than the square root of the finite-variance world.
spec = Pareto(1.5)
for n in (100, 10_000, 1_000_000):
    a_n, b_n = norming_sequence(spec, n)
    print(f"n={n:>8}: a_n={a_n:12.1f}  b_n={b_n:14.1f}")

# Rescaling the running sums by (a_n, b_n) produces a step path on [0, 1].
# For a heavy-tailed sequence a single summand can move the whole path: the
# largest jump below is usually a sizable fraction of the total range.
n = 10_000
x = sample_doa(spec, stream(99, 0), n)
a_n, _ = norming_sequence(spec, n)
path = partial_sum_process(x, spec.known_mu, a_n, grid=2**10)
jumps = np.abs(np.diff(path.values))
print(f"path range {path.values.max() - path.values.min():.3f}, "
      f"largest jump {jumps.max():.3f}")

# The same construction on exponential data gives the familiar diffusive
# picture: many small jumps, none dominant.
espec = Exponential(1.0)
e = sample_doa(espec, stream(99, 1), n)
ea, _ = norming_sequence(espec, n)
epath = partial_sum_process(e, espec.known_mu, ea, grid=2**10)
ejumps = np.abs(np.diff(epath.values))
print(f"exponential counterpart: range "
      f"{epath.values.max() - epath.values.min():.3f}, "
      f"largest jump {ejumps.max():.3f}")
