"""Characteristic function, sampler, and CDF of the stable family."""

import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from stablesums import (
    QuadratureError,
    StableParams,
    cdf,
    char_fn,
    limit_constant,
    sample,
    scale_shift,
)
from stablesums.rng import stream

T_GRID = np.array([-7.3, -2.0, -1.0, -0.4, 0.0, 0.25, 1.0, math.e, 5.5])


def test_char_fn_gaussian_branch():
    # alpha=2 is exp(-d t^2 / 2 + i mu t); beta is inert there.
    p = StableParams(2.0, 0.0, dispersion=1.7, location=-0.3)
    expected = np.exp(-1.7 * T_GRID**2 / 2 + 1j * (-0.3) * T_GRID)
    np.testing.assert_allclose(char_fn(p, T_GRID), expected, rtol=0, atol=1e-15)
    skewed = StableParams(2.0, 0.7, dispersion=1.7, location=-0.3)
    np.testing.assert_array_equal(char_fn(skewed, T_GRID), char_fn(p, T_GRID))


def test_char_fn_cauchy():
    p = StableParams(1.0, 0.0, dispersion=0.8, location=2.0)
    expected = np.exp(-0.8 * np.abs(T_GRID) + 2.0j * T_GRID)
    np.testing.assert_allclose(char_fn(p, T_GRID), expected, rtol=0, atol=1e-15)


def test_char_fn_alpha_one_skewed_hand_values():
    p = StableParams(1.0, 1.0, dispersion=1.0, location=0.5)
    # log|1| = 0 kills the drift term at t = 1.
    assert char_fn(p, 1.0) == pytest.approx(cmath.exp(-1 + 0.5j), abs=1e-15)
    # at t = e the log term is exactly 1
    expected = cmath.exp(-math.e * (1 + 1j * 2 / math.pi) + 0.5j * math.e)
    assert char_fn(p, math.e) == pytest.approx(expected, abs=1e-15)


def test_char_fn_general_hand_value():
    # tan(3 pi / 4) = -1, so the exponent at t=1 collapses to -(1 + i)
    p = StableParams(1.5, 1.0)
    assert char_fn(p, 1.0) == pytest.approx(cmath.exp(-1 - 1j), abs=1e-15)


def test_char_fn_at_zero_and_modulus():
    for p in (StableParams(0.7, -0.4), StableParams(1.0, 1.0, 2.0),
              StableParams(1.5, 0.3, 0.5, 1.0), StableParams(2.0, 0.0, 3.0)):
        assert char_fn(p, 0.0) == 1.0 + 0.0j
        # |phi| never depends on beta or location; the alpha=2 branch halves
        # the exponent so that dispersion doubles as variance
        scale = 0.5 if p.alpha == 2.0 else 1.0
        np.testing.assert_allclose(
            np.abs(char_fn(p, T_GRID)),
            np.exp(-scale * p.dispersion * np.abs(T_GRID) ** p.alpha),
            rtol=0, atol=1e-15)


def test_char_fn_mirror_symmetry():
    # negating the variable conjugates; negating (beta, location) mirrors the law
    for alpha in (0.8, 1.0, 1.4, 2.0):
        p = StableParams(alpha, 0.6, 1.3, -0.7)
        m = StableParams(alpha, -0.6, 1.3, 0.7)
        np.testing.assert_allclose(char_fn(p, -T_GRID), np.conj(char_fn(p, T_GRID)),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(char_fn(m, T_GRID), np.conj(char_fn(p, T_GRID)),
                                   rtol=0, atol=1e-15)


def test_scale_shift_contract_all_branches():
    # char_fn(scale_shift(p, c, d), t) == char_fn(p, c t) * exp(i d t)
    for alpha, beta in ((2.0, 0.0), (1.7, 0.3), (1.0, 0.0), (1.0, 1.0),
                        (1.0, -0.5), (0.8, 1.0)):
        p = StableParams(alpha, beta, dispersion=1.4, location=0.6)
        for c in (0.5, 1.0, 2.3):
            for d in (0.0, -1.2):
                q = scale_shift(p, c, d)
                lhs = char_fn(q, T_GRID)
                rhs = char_fn(p, c * T_GRID) * np.exp(1j * d * T_GRID)
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=5e-15)


def test_scale_shift_composes():
    p = StableParams(1.0, 0.8, 2.0, 1.0)
    q = scale_shift(scale_shift(p, 0.7, 1.1), 3.0, -0.2)
    r = scale_shift(p, 2.1, 1.1 * 3.0 - 0.2)
    assert q.alpha == r.alpha and q.beta == r.beta
    assert q.dispersion == pytest.approx(r.dispersion, rel=1e-15)
    assert q.location == pytest.approx(r.location, rel=1e-12)


def test_scale_shift_identity_and_gaussian_scaling():
    p = StableParams(2.0, 0.0, 1.0, 0.0)
    assert scale_shift(p, 1.0, 0.0) == p
    q = scale_shift(p, 3.0, 1.0)
    # tripling a unit-variance Gaussian gives variance 9, then shift by 1
    assert q == StableParams(2.0, 0.0, 9.0, 1.0)


def test_limit_constant_continuous_at_lower_edge():
    assert limit_constant(1.0 + 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_scale_shift_rejects_bad_scale():
    p = StableParams(1.5, 0.0)
    with pytest.raises(ValueError):
        scale_shift(p, 0.0, 1.0)
    with pytest.raises(ValueError):
        scale_shift(p, -2.0, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        StableParams(0.0, 0.0)
    with pytest.raises(ValueError):
        StableParams(2.1, 0.0)
    with pytest.raises(ValueError):
        StableParams(1.5, 1.5)
    with pytest.raises(ValueError):
        StableParams(1.5, 0.0, dispersion=0.0)
    with pytest.raises(ValueError):
        StableParams(1.5, 0.0, dispersion=-1.0)
    with pytest.raises(ValueError):
        StableParams(1.5, 0.0, location=math.nan)


def test_sampler_gaussian_moments():
    # at alpha=2 the dispersion is the variance
    x = sample(StableParams(2.0, 0.0, 2.5), stream(3005, 0), 200_000)
    assert x.mean() == pytest.approx(0.0, abs=0.02)
    assert x.var() == pytest.approx(2.5, rel=0.05)


def test_sampler_deterministic_streams():
    p = StableParams(1.5, -0.4)
    a = sample(p, stream(10, 0), 500)
    b = sample(p, stream(10, 0), 500)
    c = sample(p, stream(10, 1), 500)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_scaling_is_exact_for_alpha_not_one():
    # same stream, dispersion folds in as d**(1/alpha) on the standard draw
    a = sample(StableParams(1.5, 1.0, 8.0), stream(3006, 0), 1000)
    b = 8.0 ** (1 / 1.5) * sample(StableParams(1.5, 1.0, 1.0), stream(3006, 0), 1000)
    np.testing.assert_array_equal(a, b)


def test_sampler_alpha_one_scaling_drift():
    # S(1, b, 2d) must match 2 X + (2/pi) b d' log-correction in law
    from stablesums import ks_two_sample
    b = 0.7
    lhs = sample(StableParams(1.0, b, 2.0), stream(3003, 0), 20_000)
    rhs = 2.0 * sample(StableParams(1.0, b, 1.0), stream(3003, 1), 20_000) \
        + (2 / math.pi) * b * 2.0 * math.log(2.0)
    stat, p = ks_two_sample(lhs, rhs)
    assert p > 0.01, (stat, p)


def test_sampler_matches_char_fn():
    from stablesums import empirical_char_fn
    p = StableParams(1.5, 0.5)
    x = sample(p, stream(3004, 0), 100_000)
    for t in (0.5, 1.0, 2.0):
        err = np.abs(empirical_char_fn(x, t) - char_fn(p, t))
        assert float(np.max(err)) < 0.01


def test_sampler_tail_index():
    # Hill estimate over the top 1% of a heavy, fully skewed sample
    x = sample(StableParams(1.5, 1.0), stream(3001, 0), 10**6)
    k = 10_000
    top = np.sort(np.partition(x, x.size - k - 1)[-k - 1:])
    hill = 1.0 / np.mean(np.log(top[1:] / top[0]))
    assert 1.35 < hill < 1.65


def test_sampler_convolution_stability():
    # sums of five iid draws follow the law with five times the dispersion
    from stablesums import ks_two_sample
    m = 4000
    direct = sample(StableParams(1.5, 1.0, 5.0), stream(3002, 1), m)
    raw = sample(StableParams(1.5, 1.0), stream(3002, 0), 5 * m)
    stat, p = ks_two_sample(raw.reshape(m, 5).sum(axis=1), direct)
    assert p > 0.01, (stat, p)


def test_sampler_rejects_bad_n():
    with pytest.raises(ValueError):
        sample(StableParams(1.5, 0.0), stream(1, 0), -1)


def test_cdf_gaussian_closed_form():
    p = StableParams(2.0, 0.0)  # N(0, 1)
    for x in (-3.0, -1.0, 0.0, 0.5, 1.6449, 4.0):
        assert cdf(p, x) == pytest.approx(0.5 * (1 + math.erf(x / math.sqrt(2))),
                                          abs=1e-10)


def test_cdf_cauchy_closed_form():
    p = StableParams(1.0, 0.0)
    for x in (-5.0, -1.0, 0.0, 1.0, 2.5):
        assert cdf(p, x) == pytest.approx(0.5 + math.atan(x) / math.pi, abs=1e-10)
    assert cdf(p, 1.0) == pytest.approx(0.75, abs=1e-10)


def test_cdf_symmetric_median():
    assert cdf(StableParams(1.5, 0.0), 0.0) == pytest.approx(0.5, abs=1e-10)
    assert cdf(StableParams(1.7, 0.0, 2.0, 3.0), 3.0) == pytest.approx(0.5, abs=1e-10)


def test_cdf_monotone_skewed():
    p = StableParams(1.3, 0.8, 1.3, -0.2)
    xs = np.linspace(-25.0, 25.0, 201)
    vals = [cdf(p, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert 0.0 <= vals[0] < 0.05 and 0.95 < vals[-1] <= 1.0


def test_cdf_extreme_arguments_clamp():
    p = StableParams(2.0, 0.0)
    assert cdf(p, -40.0) == 0.0
    assert cdf(p, 40.0) == 1.0


def test_cdf_reports_quadrature_failure():
    # a near-degenerate dispersion pushes the cutoff far beyond what the
    # integrator can resolve against a fast phase
    with pytest.raises(QuadratureError):
        cdf(StableParams(1.5, 0.0, 1e-9), 100.0)


@pytest.mark.parametrize("alpha,beta", [(2.0, 0.0), (1.5, 0.0), (1.5, 1.0),
                                        (1.2, 0.5), (1.0, 0.5)])
def test_cdf_array_equals_scalar_loop(alpha, beta):
    p = StableParams(alpha, beta, 1.3, -0.2)
    xs = np.linspace(-8.0, 8.0, 33)
    np.testing.assert_array_equal(cdf(p, xs), [cdf(p, x) for x in xs.tolist()])


def test_cdf_array_keeps_shape_and_scalar_gives_float():
    p = StableParams(1.5, 1.0)
    xs = np.array([[-1.0, 0.0, 2.0], [3.0, -4.0, 0.5]])
    out = cdf(p, xs)
    assert out.shape == xs.shape
    assert out[1, 2] == cdf(p, 0.5)
    assert type(cdf(p, 0.5)) is float
    assert type(cdf(p, np.float64(0.5))) is float


def test_cdf_rejects_non_finite_element():
    for bad in (np.array([0.0, math.nan]), [1.0, math.inf], -math.inf):
        with pytest.raises(ValueError):
            cdf(StableParams(1.5, 0.0), bad)


def test_cdf_array_reports_quadrature_failure():
    with pytest.raises(QuadratureError):
        cdf(StableParams(1.5, 0.0, 1e-9), np.array([0.0, 100.0]))


def test_limit_constant_exact_and_quadrature():
    assert limit_constant(2.0) == math.sqrt(2.0)
    for alpha in (1.1, 1.5, 1.9, 2.0):
        gamma_q, err = integrate.quad(lambda u, a=alpha: u**a * math.exp(-u),
                                      0, np.inf)
        assert err < 1e-7
        assert limit_constant(alpha) == pytest.approx(gamma_q ** (1 / alpha),
                                                      abs=1e-8)
    # the same moment integral in its inverse-log form
    for alpha in (1.1, 1.5, 2.0):
        gamma_q, err = integrate.quad(
            lambda u, a=alpha: (-math.log(u)) ** a, 0, 1)
        assert math.gamma(alpha + 1) == pytest.approx(gamma_q, abs=1e-8)


def test_limit_constant_domain():
    with pytest.raises(ValueError):
        limit_constant(1.0)
    with pytest.raises(ValueError):
        limit_constant(2.2)
