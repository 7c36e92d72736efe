"""
Products of partial sums and their log-space limit
==================================================

"""

import math

import numpy as np

from stablesums import (
    Exponential,
    Pareto,
    cdf,
    functional_statistic,
    ks_one_sample,
    limit_law,
    log_product_statistic,
    norming_sequence,
    qi_log,
    sample_doa,
    verify_product,
)
from stablesums.rng import stream

# The product statistic multiplies the ratios S_k / (k mu) and raises the
# result to a vanishing exponent.  Its log is exactly a path functional of
# the rescaled sums with f(x) = mu log(x / mu), evaluated at t = 1: the two
# routes agree to machine precision, not just in distribution.
spec = Exponential(1.0)
n = 1000
x = sample_doa(spec, stream(31, 0), n)
a_n, _ = norming_sequence(spec, n)
lhs = log_product_statistic(x, spec.known_mu, spec.known_mu / a_n)
rhs = functional_statistic(x, qi_log(spec.known_mu), spec.known_mu,
                           a_n, grid=n).at(1.0)
print(f"log product {lhs:+.12f}")
print(f"functional  {rhs:+.12f}   gap {abs(lhs - rhs):.1e}")

# For exponential summands the limit of the log statistic is N(0, 2); a
# one-sample KS over replicates confirms it.  The sum length matters here:
# the statistic carries a systematic -log(n)/(2 sqrt(n)) shift, so n must be
# large enough to push that bias inside the KS noise floor.
reps, nn = 2000, 10**4
vals = np.empty(reps)
for r in range(reps):
    xr = sample_doa(spec, stream(31, 1, r), nn)
    vals[r] = log_product_statistic(xr, 1.0, 1.0 / math.sqrt(nn))
law = limit_law(2.0, 0.0, 1.0, 1.0)
stat, p = ks_one_sample(vals, lambda v: cdf(law, v))
print(f"exponential logs vs N(0, 2): KS {stat:.4f}, p {p:.3f}")

# With Pareto(1.5) summands the same construction leaves the Gaussian world:
# the limit is the fully skewed 1.5-stable law.  The packaged campaign runs
# the comparison with its control in one call.
report = verify_product(Pareto(1.5), n=10**4, reps=2000, seed=32,
                        threshold=0.07)
print(f"heavy-tail campaign: statistic {report.statistic:.4f}, "
      f"passed={report.passed}, control rejected="
      f"{not report.negative_control['passed']}")
