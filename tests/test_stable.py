"""Characteristic function, sampler, and CDF of the stable family."""

import cmath
import itertools
import math
import time
import timeit

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_inversion import inversion_cdf
from reference_sampler import reference_sample
from scipy import integrate, special
from scipy.stats import levy_stable

from stablesums import (
    QuadratureError,
    StableParams,
    cdf,
    char_fn,
    ks_one_sample,
    limit_constant,
    sample,
    scale_shift,
)
from stablesums import stable
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


@pytest.mark.parametrize("t", [math.nan, math.inf, [0.0, -math.inf]])
def test_char_fn_refuses_non_finite_t(t):
    with pytest.raises(ValueError, match="^t must be finite$"):
        char_fn(StableParams(1.5, 0.3), t)


@pytest.mark.parametrize("alpha,beta", [(2.0, 0.0), (1.0, 0.5), (1.0, 0.0), (1.5, 0.5),
                                        (1.5, 0.0), (1.2, -1.0), (0.5, 1.0)])
def test_char_fn_is_zero_where_its_exponent_overflows(alpha, beta):
    # |phi| = exp(-d*|t|**alpha) is below the smallest float, whatever the
    # phase; no warning (warnings are errors here)
    p = StableParams(alpha, beta, 8e307, 1.0)
    t = np.array([-1.7e308, -1e200, -5.0, 5.0, 1e300, 1.7e308])
    np.testing.assert_array_equal(char_fn(p, t), np.zeros(t.size))
    assert char_fn(p, 5.0) == 0j and char_fn(p, 0.0) == 1.0 + 0.0j
    # the usual dispersion at huge |t| underflows alike
    np.testing.assert_array_equal(char_fn(StableParams(alpha, beta), t[[0, -1]]), [0j, 0j])


def test_char_fn_refuses_a_phase_that_overflows_where_it_is_not_zero():
    # location*t beyond the float range has no float phase, and |phi| is not 0
    with pytest.raises(ValueError, match="^the phase of the characteristic function "
                                         "overflows$"):
        char_fn(StableParams(1.5, 0.5, 1.0, 1e308), [0.5, 5.0])
    assert char_fn(StableParams(1.5, 0.5, 1.0, 1e308), 1e200) == 0j


def test_char_fn_alpha_one_where_only_t_log_t_overflows():
    # t*log|t| overflows at t = 1.7e308, but d*t*log|t| does not; mpmath is
    # the oracle
    p = StableParams(1.0, 0.5, 1e-310)
    t = 1.7e308
    with mpmath.workdps(40):
        d, tm = mpmath.mpf(p.dispersion), mpmath.mpf(t)
        want = complex(mpmath.exp(-d * tm - 1j * d * 0.5 * (2 / mpmath.pi) * tm * mpmath.log(tm)))
    assert char_fn(p, t) == pytest.approx(want, rel=0, abs=1e-15)
    assert char_fn(p, -t) == pytest.approx(want.conjugate(), rel=0, abs=1e-15)
    # a location*t beyond the float range is still refused
    with pytest.raises(ValueError, match="^the phase of the characteristic function "
                                         "overflows$"):
        char_fn(StableParams(1.0, 0.5, 1e-310, 1e300), t)


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


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 1.0, 1.2, 1.5, 1.9, 2.0])
def test_sampler_keeps_the_bits_of_the_textbook_expressions(alpha):
    # at alpha = 0.5 the exponents are 2 and 1, where numpy's ** has fast
    # paths; location 0.0 turns a draw of -0.0 into +0.0
    for beta, (d, mu), n, seed in itertools.product(
            [-1.0, -0.5, 0.0, 0.3, 1.0], [(1.0, 0.0), (0.37, -2.5), (1e3, 1e-300)],
            [0, 1, 7, 4096, 16385], [0, 1, 2]):
        params = StableParams(alpha, beta, d, mu)
        want = reference_sample(params, stream(3007, seed), n)
        got = sample(params, stream(3007, seed), n)
        assert got.tobytes() == want.tobytes(), (beta, d, mu, n, seed)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 1.0, 1.2, 1.5, 1.9, 2.0])
def test_sampler_meets_the_transform_on_the_c_librarys_sine_and_cosine(alpha):
    # the powers 1/alpha and (1-alpha)/alpha carry the cosines' rounding; at
    # alpha == 1 the two terms of a draw can cancel, so the bound is absolute
    rtol = 4e-15 * max(1.0, abs(1.0 - alpha) / alpha)
    for beta, seed in itertools.product([-1.0, -0.5, 0.0, 0.3, 1.0], [0, 1, 2]):
        params = StableParams(alpha, beta)
        want = reference_sample(params, stream(3007, seed), 16385, sin=np.sin, cos=np.cos)
        got = sample(params, stream(3007, seed), 16385)
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol if alpha == 1.0 else 0.0,
                                   err_msg=f"beta={beta}, seed={seed}")


@pytest.mark.parametrize("angle", [math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.0, -0.0])
def test_half_angle_sine_at_the_ends_of_its_interval(angle):
    got = stable._sin(np.array([angle]), np.empty(1))[0]
    want = math.sin(angle)
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert abs(got - want) <= 2.0 * math.ulp(want)


# -pi/2 is the angle the sampler draws from a uniform of 0
@pytest.mark.parametrize("angle", [-math.pi / 2, math.pi / 2, 0.0, -0.0])
def test_half_angle_cosine_at_the_ends_of_its_interval(angle):
    got = stable._cos(np.array([angle]), np.empty(1))[0]
    want = math.cos(angle)
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert abs(got - want) <= 2.0 * math.ulp(want)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 1.0, 1.2, 1.5, 1.9, 2.0])
def test_sampler_raises_no_floating_point_error(alpha):
    for beta in [-1.0, -0.5, 0.0, 0.3, 1.0]:
        with np.errstate(all="raise"):
            sample(StableParams(alpha, beta), stream(3008, 0), 16385)


def _mp_standard_draws(alpha, beta, theta, w):
    """The alpha != 1 transform in 40-digit arithmetic, on the sampler's own
    float constants and angles: only its sines, cosines, powers, products and
    quotients are exact."""
    skew = math.tan(math.pi * alpha / 2.0)
    pivot = math.atan(beta * skew) / alpha
    scale = (1.0 + (beta * skew) ** 2) ** (0.5 / alpha)
    arg = (theta + pivot) * alpha
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        return np.array([float(scale * mpmath.sin(g) / mpmath.cos(t) ** (1 / a)
                               * (mpmath.cos(c) / e) ** ((1 - a) / a))
                         for t, e, g, c in zip(theta.tolist(), w.tolist(), arg.tolist(),
                                               (theta - arg).tolist())])


@pytest.mark.parametrize("alpha,beta", [(1.5, 0.0), (1.5, 1.0), (1.2, 0.5), (0.5, -0.5)])
def test_sampler_within_a_few_ulp_of_mpmath(alpha, beta):
    n = 2000
    rng = stream(3009, 0)
    theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = rng.standard_exponential(n)
    want = _mp_standard_draws(alpha, beta, theta, w)
    got = sample(StableParams(alpha, beta), stream(3009, 0), n)
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert np.median(ulps) <= 2.0 and ulps.max() <= 32.0, (np.median(ulps), ulps.max())


def test_sampler_rejects_bad_n():
    with pytest.raises(ValueError):
        sample(StableParams(1.5, 0.0), stream(1, 0), -1)


def test_cdf_gaussian_closed_form():
    p = StableParams(2.0, 0.0)  # N(0, 1)
    for x in (-3.0, -1.0, 0.0, 0.5, 1.6449, 4.0):
        assert cdf(p, x) == pytest.approx(0.5 * (1 + math.erf(x / math.sqrt(2))),
                                          abs=1e-10)


def test_cdf_gaussian_within_two_ulp_of_mpmath_erfc():
    # the normal range of 0.5 erfc((location - x) / sqrt(2 dispersion)),
    # down the lower tail to 1e-198; mpmath is the oracle, since scipy's erfc
    # is itself off by up to a few hundred ulp there
    p = StableParams(2.0, 0.0, dispersion=1.0, location=0.0)
    x = np.linspace(-30.0, 26.0, 20001)
    got = cdf(p, x)
    assert got.dtype == np.float64 and got.shape == x.shape
    with mpmath.workdps(40):
        want = np.array([float(0.5 * mpmath.erfc(mpmath.mpf(a)))
                         for a in ((0.0 - x) / math.sqrt(2.0)).tolist()])
    assert want.min() > np.finfo(float).tiny
    assert np.max(np.abs(got - want) / np.spacing(want)) <= 2.0
    shifted = StableParams(2.0, 0.0, dispersion=2.5, location=-1.25)
    assert cdf(shifted, 3.0) == float(0.5 * mpmath.erfc((-1.25 - 3.0) / mpmath.sqrt(5.0)))


@pytest.mark.parametrize("law, x", [
    (StableParams(2.0, 0.0, 1e-300), 1e300),
    (StableParams(1.5, 1.0), 1e300),
    (StableParams(0.05, 0.5, 1e300), 3.0),
    (StableParams(1.5, 0.3), 0.7),
])
def test_cdf_is_one_silenced_scope(law, x):
    # cdf overflows and underflows by design and checks each value itself, so
    # it answers alike under a caller's errstate(all="raise"), also while it
    # builds the law's table and the nodes
    want = cdf(law, x)
    stable._integral.cache_clear()
    stable._nodes.cache_clear()
    with np.errstate(all="raise"):
        assert cdf(law, x) == want


def test_expit_saturates_without_a_warning():
    # pytest turns every warning into an error, so the overflow of exp(-s)
    # at s = -800 would fail here
    assert stable._expit(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]
    assert stable._expit(-800.0) == 0.0
    s = np.linspace(-40.0, 40.0, 4001)
    got = stable._expit(s)
    assert np.all(np.diff(got) >= 0.0)
    np.testing.assert_allclose(got, special.expit(s), rtol=4e-16, atol=0)
    with mpmath.workdps(40):
        want = [float(1 / (1 + mpmath.exp(-mpmath.mpf(v)))) for v in s.tolist()]
    np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)


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


def _first_tail_term(alpha, beta, dispersion, x):
    """P(X > x) ~ C_alpha (1 + beta)/2 dispersion x^-alpha, alpha != 1
    (Samorodnitsky & Taqqu 1994, Prop. 1.2.15; dispersion = sigma^alpha)."""
    c_alpha = (1 - alpha) / (math.gamma(2 - alpha) * math.cos(math.pi * alpha / 2))
    return c_alpha * (1 + beta) / 2 * dispersion * x ** -alpha


def test_cdf_reports_quadrature_failure(monkeypatch):
    # dispersion 1e-9 puts x = 100 at z = 1e8, where the Fourier inversion did
    # not converge; the tail series now answers there
    sf = 1.0 - cdf(StableParams(1.5, 0.0, 1e-9), 100.0)
    assert sf == pytest.approx(_first_tail_term(1.5, 0.0, 1e-9, 100.0), rel=2e-3)
    # a tolerance below the kernel's own error estimate makes it refuse
    monkeypatch.setattr(stable, "_MAX_ABSERR", 1e-30)
    with pytest.raises(QuadratureError, match="x=0.5"):
        cdf(StableParams(1.5, 0.0), 0.5)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.array([0.0, math.nan]),
                                 [1.0, math.inf], np.array([[-math.inf, 0.5]])])
@pytest.mark.parametrize("law", [StableParams(1.5, 0.0), StableParams(2.0, 0.0)])
def test_cdf_refuses_non_finite_x_with_its_message(law, bad):
    with pytest.raises(ValueError, match=r"^x must be finite$"):
        cdf(law, bad)


def test_cdf_array_reports_quadrature_failure(monkeypatch):
    out = cdf(StableParams(1.5, 0.0, 1e-9), np.array([0.0, 100.0]))
    assert out[0] == 0.5
    assert 1.0 - out[1] == pytest.approx(_first_tail_term(1.5, 0.0, 1e-9, 100.0), rel=2e-3)
    monkeypatch.setattr(stable, "_MAX_ABSERR", 1e-30)
    with pytest.raises(QuadratureError, match="x=-0.5"):
        cdf(StableParams(1.5, 0.0), np.array([-0.5, 0.5]))


def test_cdf_reports_the_first_failure_in_input_order_across_blocks(monkeypatch):
    # more than a block of far-tail points, which take the series with error
    # estimate 0, then body points from the second block on, the first of
    # them negative: the refusal names that x
    rng = np.random.default_rng(3)
    n_tail = stable._CHUNK + 5
    tail = rng.choice([-1.0, 1.0], n_tail) * 10.0 ** rng.uniform(6.0, 9.0, n_tail)
    body = np.concatenate([[-0.75], rng.uniform(-5.0, 5.0, 2 * stable._CHUNK)])
    xs = np.concatenate([tail, body])
    assert xs.size > 3 * stable._CHUNK
    law = StableParams(1.5, 0.0)
    cdf(law, xs)
    monkeypatch.setattr(stable, "_MAX_ABSERR", 1e-30)
    cdf(law, tail)
    with pytest.raises(QuadratureError, match=r"x=-0\.75 "):
        cdf(law, xs)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_cdf_of_an_empty_array_is_an_empty_float_array(alpha):
    out = cdf(StableParams(alpha, 0.5), np.array([]))
    assert out.dtype == np.float64 and out.shape == (0,)


def test_cdf_array_equals_scalar_loop_across_blocks():
    # more points than two blocks of the kernel, bulk and tail points mixed,
    # so each block holds points of every branch
    n = 2 * stable._CHUNK + 1
    rng = np.random.default_rng(7)
    for law in (StableParams(1.5, 1.0, 1.3, -0.2), StableParams(1.0, 0.5),
                StableParams(0.8, -0.7)):
        bulk = rng.uniform(-8.0, 8.0, n // 2)
        tail = rng.choice([-1.0, 1.0], n - n // 2) * 10.0 ** rng.uniform(1.0, 10.0, n - n // 2)
        xs = rng.permutation(np.concatenate([bulk, tail]))
        np.testing.assert_array_equal(cdf(law, xs), [cdf(law, x) for x in xs.tolist()])


def test_cdf_scalar_call_no_slower_than_the_inversion():
    law = StableParams(1.5, 1.0)
    cdf(law, 0.5)   # builds the tables of this law once
    def cpu_seconds(fn):   # process time, so other processes' load does not count
        return timeit.Timer(lambda: fn(law, 0.5), timer=time.process_time).timeit(number=20)

    new, old = [], []
    for _ in range(25):   # interleaved, so both see the same state of the machine
        new.append(cpu_seconds(cdf))
        old.append(cpu_seconds(inversion_cdf))
    assert min(new) <= min(old), (min(new) / 20, min(old) / 20)


# ---- oracles for the CDF kernel -------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.2, 1.5, 1.9])
def test_cdf_matches_reference_inversion(alpha):
    xs = np.linspace(-8.0, 8.0, 33)
    for beta in (-1.0, -0.5, 0.0, 0.5, 1.0):
        law = StableParams(alpha, beta)
        np.testing.assert_allclose(cdf(law, xs), inversion_cdf(law, xs), rtol=0, atol=1e-10)


@pytest.mark.parametrize("alpha,beta,dispersion,location", [
    (1.5, 1.0, 1.3, -0.2), (1.2, 0.5, 0.7, 0.4), (0.8, -0.5, 1.0, 0.0), (1.9, 0.0, 2.0, 1.0)])
def test_cdf_matches_levy_stable(alpha, beta, dispersion, location):
    # scipy's S1 law with scale dispersion**(1/alpha); a bulk oracle only,
    # its survival function is 0.0 far in the tail
    xs = np.linspace(-6.0, 6.0, 25)
    levy_stable.parameterization = "S1"
    ref = levy_stable.cdf(xs, alpha, beta, loc=location, scale=dispersion ** (1.0 / alpha))
    got = cdf(StableParams(alpha, beta, dispersion, location), xs)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)


def test_cdf_levy_closed_form():
    # S1(1/2, 1) with dispersion d and location mu is the Levy law of scale
    # d**2, P(X <= x) = erfc(d / sqrt(2 (x - mu))) on x > mu, 0 below
    d, mu = 1.7, 0.3
    xs = np.array([-2.0, 0.3, 0.31, 0.5, 1.0, 3.0, 40.0, 1e4, 1e9])
    gap = np.maximum(xs - mu, 1e-300)
    expected = np.where(xs > mu, special.erfc(d / np.sqrt(2.0 * gap)), 0.0)
    got = cdf(StableParams(0.5, 1.0, d, mu), xs)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_cdf_tail_first_term():
    # at x = 3000 the second term of the series is about 1e-5 of the first
    sf = 1.0 - cdf(StableParams(1.5, 1.0), 3000.0)
    assert sf == pytest.approx(_first_tail_term(1.5, 1.0, 1.0, 3000.0), rel=1e-4)


def _mp_inversion_sf(alpha, beta, x):
    """P(X > x) by Gil-Pelaez inversion of the S1 characteristic function in
    20-digit arithmetic: the start up to four periods by quad, the rest by
    quadosc."""
    with mpmath.workdps(20):
        a, b, x = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(x)
        skew = mpmath.tan(mpmath.pi * a / 2)

        def integrand(t):
            return mpmath.im(mpmath.exp(-t ** a * (1 - 1j * b * skew) - 1j * t * x)) / t

        period = 2 * mpmath.pi / x
        head = mpmath.quad(integrand, [0, period / 4, period, 2 * period, 4 * period])
        rest = mpmath.quadosc(integrand, [4 * period, mpmath.inf], omega=x)
        return float(mpmath.mpf(1) / 2 + (head + rest) / mpmath.pi)


@pytest.mark.parametrize("alpha,beta,x", [(1.2, 0.5, 60.0), (1.5, 1.0, 200.0)])
def test_cdf_far_tail_matches_mpmath_inversion(alpha, beta, x):
    # x = 60 is still in the integral's range, x = 200 in the tail series'
    sf = 1.0 - cdf(StableParams(alpha, beta), x)
    assert sf == pytest.approx(_mp_inversion_sf(alpha, beta, x), rel=1e-11)


def _convergent_series_sf(alpha, beta, z, terms=80):
    """For alpha < 1 Bergstrom's series of P(X > z) converges for every z > 0."""
    with mpmath.workdps(30):
        a, b, z = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        theta0 = mpmath.atan(b * mpmath.tan(mpmath.pi * a / 2)) / a
        c = 1 / mpmath.cos(a * theta0)
        al = a * (mpmath.pi / 2 + theta0)
        total = sum((-1) ** (k + 1) * mpmath.gamma(a * k) / mpmath.factorial(k) * c ** k
                    * mpmath.sin(k * al) * z ** (-a * k) for k in range(1, terms))
        return float(total / mpmath.pi)


@pytest.mark.parametrize("alpha,beta,z", [(0.5, 1.0, 50.0), (0.5, 1.0, 2.0), (0.8, -0.5, 3.0),
                                          (0.3, 0.9, 0.5)])
def test_cdf_matches_convergent_series_below_alpha_one(alpha, beta, z):
    sf = 1.0 - cdf(StableParams(alpha, beta), z)
    assert sf == pytest.approx(_convergent_series_sf(alpha, beta, z), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("alpha,beta,x", [(1.5, 1.0, 3000.0), (1.2, 0.5, 1351.07),
                                          (1.001, 1.0, 0.3), (0.5, 1.0, 50.0)])
def test_cdf_answers_where_the_inversion_did_not_converge(alpha, beta, x):
    law = StableParams(alpha, beta)
    with pytest.raises(QuadratureError):
        inversion_cdf(law, x)
    assert 0.0 < cdf(law, x) < 1.0


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_cdf_answers_on_totally_skewed_samples(alpha):
    law = StableParams(alpha, 1.0)
    xs = np.sort(sample(law, stream(11, 0), 20_000))
    f = cdf(law, xs)
    assert np.all(np.diff(f) >= 0.0) and 0.0 <= f[0] and f[-1] <= 1.0
    _, p_value = ks_one_sample(xs, lambda sorted_xs: f)
    assert p_value > 0.01


_ALPHAS = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.05, 2.0))
_BETAS = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
_POINTS = st.lists(st.one_of(st.floats(-20.0, 20.0), st.floats(-1e12, 1e12)),
                   min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(alpha=_ALPHAS, beta=_BETAS, xs=_POINTS)
@example(alpha=0.0625, beta=0.0, xs=[0.0])   # F(0) = 1/2 at beta = 0, mirrored exactly
def test_cdf_properties(alpha, beta, xs):
    xs = np.sort(np.array(xs))
    f = cdf(StableParams(alpha, beta), xs)
    assert np.all((0.0 <= f) & (f <= 1.0))
    assert np.all(np.diff(f) >= -1e-10)
    mirrored = cdf(StableParams(alpha, -beta), -xs)
    np.testing.assert_allclose(f, 1.0 - mirrored, rtol=0, atol=1e-15)


_EDGE_X = np.array([0.0, 5e-324, 1e-300, 1e-10, 0.5, 1.0, 10.0, 1e6, 1e10, 1e100, 1e300, 1.7e308])


@pytest.mark.parametrize("alpha", [stable._MIN_ALPHA, 2.0])
@pytest.mark.parametrize("beta", [-1.0, 0.0, 1.0])
def test_sample_and_cdf_are_total_at_the_ends_of_alpha(alpha, beta):
    # warnings are errors here, so neither call may warn
    law = StableParams(alpha, beta)
    assert np.isfinite(sample(law, stream(12, 0), 100_000)).all()
    xs = np.concatenate((-_EDGE_X[::-1], _EDGE_X))
    f = cdf(law, xs)
    assert np.all((0.0 <= f) & (f <= 1.0)) and np.all(np.diff(f) >= -1e-10)
    if beta == 0.0:
        assert abs(cdf(law, 0.0) - 0.5) <= 1e-12


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
