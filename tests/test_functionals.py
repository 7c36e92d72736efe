"""Path functionals of partial sums and their limit laws."""

import math

import numpy as np
import pytest

from stablesums import (
    DomainError,
    FunctionSpec,
    FunctionalConfig,
    SamplePath,
    StableParams,
    exponential,
    functional_statistic,
    identity_fn,
    integral_riemann,
    limit_law,
    log_product_statistic,
    product_statistic,
    qi_log,
    sample_doa,
    simulate_levy_path,
)
from stablesums.rng import stream

X3 = np.array([2.0, 0.0, 4.0])  # partial sums 2, 2, 6; averages 2, 1, 2


def test_qi_log_spec():
    fn = qi_log(2.0)
    assert fn.f(2.0) == 0.0
    assert fn.f(2.0 * math.e) == pytest.approx(2.0, rel=1e-15)
    assert fn.f_prime_at_mu == 1.0
    assert fn.domain_check(0.5) and not fn.domain_check(0.0)
    with pytest.raises(ValueError):
        qi_log(0.0)


def test_identity_spec():
    fn = identity_fn()
    assert fn.f(-3.5) == -3.5
    assert fn.f_prime_at_mu == 1.0
    assert fn.domain_check(-3.5)


def test_functional_statistic_hand_example():
    path = functional_statistic(X3, identity_fn(), 2.0, math.sqrt(3.0), grid=3)
    # running averages 2, 1, 2 against f(mu) = 2 give increments 0, -1, 0
    np.testing.assert_allclose(
        path.values, [0.0, 0.0, -1 / math.sqrt(3.0), -1 / math.sqrt(3.0)],
        atol=1e-15)


def test_functional_statistic_qi_log_at_constant_sequence():
    x = np.full(5, 3.0)
    path = functional_statistic(x, qi_log(3.0), 3.0, 2.0, grid=5)
    np.testing.assert_array_equal(path.values, np.zeros(6))


def test_functional_statistic_domain_error_names_index():
    with pytest.raises(DomainError, match="k=2"):
        functional_statistic(np.array([1.0, -5.0, 10.0]), qi_log(2.0),
                             2.0, 1.0, grid=3)


def test_functional_config_validation():
    FunctionalConfig(spec=exponential(1.0), fn=qi_log(1.0), n=100, grid=8)
    with pytest.raises(ValueError):
        FunctionalConfig(spec=exponential(1.0), fn=qi_log(1.0), n=0, grid=8)
    with pytest.raises(ValueError):
        FunctionalConfig(spec=exponential(1.0), fn=qi_log(1.0), n=10, grid=0)


def test_log_product_bridge_is_exact():
    # the log of the product statistic IS the qi_log functional at t = 1
    spec = exponential(1.0)
    n = 400
    x = sample_doa(spec, stream(4301, 0), n)
    a_n = math.sqrt(n)
    lhs = log_product_statistic(x, 1.0, 1.0 / a_n)
    rhs = functional_statistic(x, qi_log(1.0), 1.0, a_n, grid=n).at(1.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_product_statistic_exp_of_log():
    x = sample_doa(exponential(1.0), stream(4302, 0), 50)
    lo = log_product_statistic(x, 1.0, 0.02)
    assert product_statistic(x, 1.0, 0.02) == pytest.approx(math.exp(lo),
                                                            rel=1e-15)


def test_product_statistic_at_the_mean_is_one():
    x = np.full(20, 1.5)
    assert product_statistic(x, 1.5, 0.3) == 1.0


def test_log_product_domain_error_names_index():
    with pytest.raises(DomainError, match="k=2"):
        log_product_statistic(np.array([1.0, -5.0, 10.0]), 2.0, 0.1)


def test_integral_riemann_constant_path_harmonic():
    # right-endpoint cells of a constant path sum the harmonic tail exactly
    m = 64
    path = SamplePath(times=np.arange(m + 1) / m, values=np.full(m + 1, 3.0))
    want = 3.0 * sum(1.0 / j for j in range(2, m + 1))
    assert integral_riemann(path, 1.0) == pytest.approx(want, abs=1e-12)


def test_integral_riemann_zero_path():
    m = 16
    path = SamplePath(times=np.arange(m + 1) / m, values=np.zeros(m + 1))
    assert integral_riemann(path, 1.0) == 0.0
    assert integral_riemann(path, 0.5, eps=0.25) == 0.0


def test_integral_riemann_respects_eps_window():
    m = 4
    path = SamplePath(times=np.arange(m + 1) / m,
                      values=np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
    # cells ending at 0.75 and 1.0 only
    got = integral_riemann(path, 1.0, eps=0.5)
    assert got == pytest.approx(0.25 / 0.75 + 0.25 / 1.0, rel=1e-15)


def test_integral_riemann_linear_path():
    # path(u) = u turns the integrand into 1; the sum collects 1 - eps
    m = 2**12
    times = np.arange(m + 1) / m
    path = SamplePath(times=times, values=times.copy())
    assert integral_riemann(path, 1.0) == pytest.approx(1.0, abs=1e-2)


def test_integral_riemann_validation():
    m = 4
    path = SamplePath(times=np.arange(m + 1) / m, values=np.ones(m + 1))
    with pytest.raises(ValueError):
        integral_riemann(path, 0.0)
    with pytest.raises(ValueError):
        integral_riemann(path, 1.1)
    with pytest.raises(ValueError):
        integral_riemann(path, 0.5, eps=0.5)
    with pytest.raises(ValueError):
        integral_riemann(path, 0.5, eps=-1.0)


def test_integral_riemann_truncation_insensitive():
    # halving eps moves the integral by well under a percent of its scale
    reps = 400
    d11 = np.empty(reps)
    d12 = np.empty(reps)
    for r in range(reps):
        p = simulate_levy_path(1.5, 0.0, stream(4201, 0, r), 4096)
        d11[r] = integral_riemann(p, 1.0, eps=2**-11)
        d12[r] = integral_riemann(p, 1.0, eps=2**-12)
    rel = np.mean(np.abs(d11 - d12)) / np.mean(np.abs(d12))
    assert rel < 0.01, rel


def test_limit_law_values():
    law = limit_law(2.0, 0.0, 1.0, 1.0)
    assert law == StableParams(2.0, 0.0, 2.0, 0.0)  # N(0, 2)
    law = limit_law(1.5, 1.0, 0.5, -2.0)
    assert law.beta == -1.0  # negative derivative mirrors the skew
    assert law.dispersion == pytest.approx(2**1.5 * math.gamma(2.5) * 0.5,
                                           rel=1e-14)
    law = limit_law(1.5, 1.0, 1.0, 3.0)
    assert law.dispersion == pytest.approx(3**1.5 * math.gamma(2.5), rel=1e-14)
    assert law.location == 0.0


def test_limit_law_validation():
    with pytest.raises(ValueError):
        limit_law(1.5, 0.0, 1.0, 0.0)  # flat derivative has no scaling
    with pytest.raises(ValueError):
        limit_law(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        limit_law(1.5, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        limit_law(1.5, 0.0, 1.5, 1.0)


def test_function_spec_is_frozen():
    fn = FunctionSpec(f=math.sin, f_prime_at_mu=1.0,
                      domain_check=math.isfinite, name="sin")
    with pytest.raises(AttributeError):
        fn.name = "other"
