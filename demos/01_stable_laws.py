"""
Drawing from stable laws and checking them in frequency space
=============================================================

"""

import numpy as np

# A stable law is pinned down by four numbers: the index alpha, the skewness
# beta, a dispersion (the coefficient of |t|**alpha in the characteristic
# exponent), and a location.  At alpha=2 the dispersion is just the variance.
from stablesums import StableParams, char_fn, cdf, sample, empirical_char_fn
from stablesums.rng import stream

law = StableParams(alpha=1.5, beta=1.0, dispersion=1.0, location=0.0)

# Draw a million variates from a named, replayable stream.  Rerunning this
# script reproduces every number below exactly.
x = sample(law, stream(2024, 0), 10**6)
print(f"drew {x.size} variates; median {np.median(x):+.4f}")

# Heavy tails announce themselves in the quantiles long before any plot.
for q in (0.5, 0.9, 0.99, 0.999):
    print(f"  quantile {q:>5}: {np.quantile(x, q):10.2f}")

# The honest fidelity check compares the empirical characteristic function
# against the analytic one: unlike moments, it exists for every alpha.
ts = np.linspace(-5, 5, 21)
gap = np.abs(empirical_char_fn(x, ts) - char_fn(law, ts))
print(f"max |empirical - analytic char fn| on [-5,5]: {gap.max():.2e}")

# The numeric CDF inverts the characteristic function.  For the two members
# with elementary closed forms the agreement is near machine precision.
import math

gauss = StableParams(2.0, 0.0)
err = abs(cdf(gauss, 1.0) - 0.5 * (1 + math.erf(1 / math.sqrt(2))))
print(f"Gaussian CDF at 1.0: error {err:.2e}")
cauchy = StableParams(1.0, 0.0)
print(f"Cauchy CDF at 1.0: {cdf(cauchy, 1.0):.12f} (exactly 3/4 in theory)")

# For the skewed law above there is no closed form; the inversion is still
# monotone and lands in [0, 1] everywhere.
xs = np.linspace(-5, 15, 9)
vals = cdf(law, xs)
print("skewed CDF:", " ".join(f"{v:.3f}" for v in vals))
