"""Norming sequences, Karamata sums, and mean-deviation estimates."""

import math

import numpy as np
import pytest

from stablesums import (
    Degenerate,
    ExactStable,
    Exponential,
    Pareto,
    StableParams,
    TwoSidedPareto,
    karamata_partial_sum,
    ks_two_sample,
    mean_abs_deviation,
    norming_sequence,
    sample,
    sample_doa,
    tail_dispersion,
)
from stablesums.rng import stream


def test_tail_dispersion_closed_form():
    # (c+ + c-) * Gamma(2 - a) * |cos(pi a / 2)| / (a - 1)
    assert tail_dispersion(1.5, 1.0, 0.0) == math.sqrt(2 * math.pi)
    got = tail_dispersion(1.3, 2.0, 0.5)
    want = 2.5 * math.gamma(0.7) * abs(math.cos(1.3 * math.pi / 2)) / 0.3
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        tail_dispersion(2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        tail_dispersion(1.5, 0.0, 0.0)


def test_norming_registry_values():
    assert norming_sequence(Exponential(1.0), 100) == (10.0, 100.0)
    assert norming_sequence(Exponential(2.0), 100) == (5.0, 50.0)

    a, b = norming_sequence(Pareto(1.5), 8)
    assert a == pytest.approx((8 * math.sqrt(2 * math.pi)) ** (2 / 3), rel=1e-14)
    assert b == 24.0

    # light tail falls back to the variance scaling
    a, b = norming_sequence(Pareto(3.0), 16)
    assert a == pytest.approx(math.sqrt(12.0), rel=1e-14)

    assert norming_sequence(Degenerate(2.0), 9) == (3.0, 18.0)

    a, b = norming_sequence(ExactStable(StableParams(1.5, 1.0, 2.0)), 8)
    assert a == pytest.approx(16.0 ** (2 / 3), rel=1e-14)
    assert b == 0.0

    # unit dispersion: a_8 = 8**(2/3) = 4 up to float powering
    a, _ = norming_sequence(ExactStable(StableParams(1.5, 1.0, 1.0)), 8)
    assert a == pytest.approx(4.0, rel=1e-12)

    # symmetric two-sided tails carry the same total tail mass as pareto
    a_sym, _ = norming_sequence(TwoSidedPareto(1.5, 0.0), 8)
    a_one, _ = norming_sequence(Pareto(1.5), 8)
    assert a_sym == a_one


def test_norming_scales_as_pure_power():
    # the registry laws are exactly regularly varying: no slow factor
    for spec in (Exponential(1.0), Pareto(1.5), Pareto(3.0),
                 ExactStable(StableParams(1.7, 0.0, 1.0))):
        alpha = spec.known_alpha
        for lam in (2, 10):
            ratio = spec.a(lam * 1000) / (lam ** (1 / alpha) * spec.a(1000))
            assert ratio == pytest.approx(1.0, rel=1e-12)


def test_norming_accepts_arrays():
    np.testing.assert_allclose(Exponential(1.0).a(np.array([1, 4, 9])), [1.0, 2.0, 3.0])


def test_norming_that_overflows_is_refused_by_name():
    # pytest turns warnings into errors, so a warning from numpy fails here
    with pytest.raises(ValueError, match=r"^a_n overflows at n=4611686018427387904$"):
        Exponential(rate=1e-300).a(2**62)
    with pytest.raises(ValueError, match=r"^b_n overflows at n=1000$"):
        Degenerate(1e307).b(np.array([10, 1000]))
    with pytest.raises(ValueError, match=r"^a_n overflows at n=4611686018427387904$"):
        norming_sequence(Exponential(rate=1e-300), 2**62)
    # a value just inside the float range keeps its bits
    assert Degenerate(1e307).b(np.array([10, 17])).tolist() == [1e307 * 10.0, 1e307 * 17.0]


def test_karamata_power_sums():
    # for a(k) = k**r the sum of a(k)/k grows like a(n)/r
    got = karamata_partial_sum(lambda k: np.sqrt(k), 10**5)
    assert got / (2 * math.sqrt(1e5)) == pytest.approx(1.0, abs=0.01)
    got = karamata_partial_sum(lambda k: k ** (2 / 3), 10**5)
    assert got / (1.5 * 1e5 ** (2 / 3)) == pytest.approx(1.0, abs=0.01)


def test_karamata_accepts_norming_seq():
    got = karamata_partial_sum(Exponential(1.0).a, 10**4)
    assert got / (2 * math.sqrt(1e4)) == pytest.approx(1.0, abs=0.02)


def test_karamata_tiny_horizons():
    assert karamata_partial_sum(lambda k: k, 1) == 1.0
    assert karamata_partial_sum(lambda k: k, 3) == 3.0
    with pytest.raises(ValueError):
        karamata_partial_sum(lambda k: k, 0)


def test_mean_abs_deviation_single_draw():
    # E|X - 1| = 2/e for a unit exponential
    got = mean_abs_deviation(Exponential(1.0), 1, 4000, 7)
    assert abs(got.estimate - 2 / math.e) < 3 * got.stderr
    assert got.stderr < 0.02


def test_mean_abs_deviation_gaussian_regime():
    # E|S_k - k| approaches sqrt(2 k / pi) for finite-variance summands
    got = mean_abs_deviation(Exponential(1.0), 10**4, 300, 8)
    assert abs(got.estimate - math.sqrt(2e4 / math.pi)) < 2.5 * got.stderr


def test_mean_abs_deviation_degenerate():
    got = mean_abs_deviation(Degenerate(3.0), 5, 10, 1)
    assert got == (0.0, 0.0)


def test_mean_abs_deviation_non_dyadic_point_mass():
    # the sum of 1000 draws of 0.1 is not 1000 * 0.1 in floating point
    assert mean_abs_deviation(Degenerate(0.1), 1000, 3, 1) == (0.0, 0.0)


def test_mean_abs_deviation_validation():
    with pytest.raises(ValueError):
        mean_abs_deviation(Exponential(1.0), 0, 10, 1)
    with pytest.raises(ValueError):
        mean_abs_deviation(Exponential(1.0), 5, 1, 1)


def test_pareto_norming_calibrates_the_limit():
    # end to end: centered, scaled heavy-tail sums against direct draws from
    # the fully skewed unit-dispersion law the constant was derived for
    spec = Pareto(1.5)
    n, reps = 50_000, 1500
    a_n, b_n = norming_sequence(spec, n)
    vals = np.empty(reps)
    for r in range(reps):
        x = sample_doa(spec, stream(4101, 0, r), n)
        vals[r] = (x.sum() - b_n) / a_n
    direct = sample(StableParams(1.5, 1.0, 1.0), stream(4101, 1), reps)
    stat, p = ks_two_sample(vals, direct)
    assert stat < 0.06, (stat, p)
    assert p > 0.01
