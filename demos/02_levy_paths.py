"""
Simulating stable Levy motion on the unit interval
==================================================

"""

import os

import numpy as np

from stablesums import StableParams, ks_two_sample, sample, simulate_levy_path
from stablesums.cli import main
from stablesums.rng import stream

# A stable Levy motion has independent stationary increments; over a cell of
# width h the increment carries dispersion h.  On a dyadic grid every
# marginal is therefore exact, not an approximation.
alpha, beta = 1.5, 1.0
path = simulate_levy_path(alpha, beta, stream(7, 0), grid=2**12)
print(f"one path on {path.times.size - 1} cells; "
      f"ends at {path.at(1.0):+.4f}")

# Paths are right-continuous step functions and can be queried anywhere.
for t in (0.1, 0.25, 0.5, 0.9):
    print(f"  L({t}) = {path.at(t):+.4f}")

# Write one path per replicate for external plotting: the `paths` command
# writes path_0000.csv, ... (columns t,value) plus report.json.
out = os.path.join(os.path.dirname(__file__), "out")
main(["paths", "--alpha", str(alpha), "--beta", str(beta), "--grid", "256",
      "--reps", "3", "--seed", "7", "--out-dir", out])
print(f"wrote 3 paths to {out}/path_*.csv")

# Sanity: across replicates, the time-1 values must be draws from the
# unit-dispersion law itself.  A two-sample KS test agrees.
reps = 2000
ends = np.array([simulate_levy_path(alpha, beta, stream(7, 2, r), 64).at(1.0)
                 for r in range(reps)])
direct = sample(StableParams(alpha, beta, 1.0), stream(7, 3), reps)
stat, p = ks_two_sample(ends, direct)
print(f"time-1 marginal vs direct draws: KS {stat:.4f}, p {p:.3f}")

# Self-similarity in one line: the t=1/2 marginal is a 2**(-1/alpha)-scaled
# copy of the t=1 law.
halves = np.array([simulate_levy_path(alpha, beta, stream(7, 2, r), 64).at(0.5)
                   for r in range(reps)])
stat, p = ks_two_sample(halves, 0.5 ** (1 / alpha) * direct)
print(f"self-similarity at t=1/2:           KS {stat:.4f}, p {p:.3f}")
