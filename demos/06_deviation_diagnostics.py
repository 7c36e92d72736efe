"""
Mean-deviation growth, Karamata sums, and the boundedness diagnostic
====================================================================

"""

import math

from stablesums import (
    exponential,
    karamata_partial_sum,
    mean_abs_deviation,
    pareto,
    verify_lemma,
)

# E|S_k - k mu| is the engine behind the tightness arguments: it grows like
# the norming sequence a_k.  For exponential summands the Gaussian limit
# pins the constant at sqrt(2/pi).
spec = exponential(1.0)
for k in (100, 10_000):
    est = mean_abs_deviation(spec, k, reps=400, seed=17)
    print(f"k={k:>6}: E|S_k - k| = {est.estimate:8.3f} "
          f"(se {est.stderr:.3f}), sqrt(2k/pi) = {math.sqrt(2 * k / math.pi):8.3f}")

# Karamata's asymptotics say the running sum of a(k)/k grows like a(n)
# divided by the regular-variation index; the package sums it directly.
a = pareto(1.5).a
n = 10**5
got = karamata_partial_sum(a, n)
want = a(n) / (1 / 1.5)
print(f"sum of a(k)/k up to n={n}: {got:12.1f}; Karamata predicts "
      f"{want:12.1f} (ratio {got / want:.4f})")

# The boundedness campaign estimates the ratio of that running sum to a_n
# over widening horizons.  A bounded, non-growing band passes; the negative
# control rescales the same sums by log(n), which must blow through the band.
for spec in (exponential(1.0), pareto(1.5)):
    report = verify_lemma(spec, ns=[100, 1000, 10000], reps=200, seed=18)
    ratios = ", ".join(f"{v:.3f}" for v in report.details["ratios"])
    print(f"{type(spec.family).__name__:<12} ratios [{ratios}] "
          f"statistic {report.statistic:.3f} passed={report.passed} "
          f"control rejected={not report.negative_control['passed']}")
