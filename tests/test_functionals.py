"""Path functionals of partial sums and their limit laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesums import (
    DomainError,
    Exponential,
    FunctionSpec,
    Pareto,
    SamplePath,
    StableParams,
    functional_statistic,
    integral_riemann,
    limit_law,
    log_product_statistic,
    product_statistic,
    qi_log,
    sample,
    sample_doa,
    simulate_levy_path,
    verify_fclt,
)
from stablesums.functionals import _functional_kernel
from stablesums.rng import stream

X3 = np.array([2.0, 0.0, 4.0])  # partial sums 2, 2, 6; averages 2, 1, 2
# f(x) = x everywhere, the raw invariance-principle statistic: a transform
# other than the log, defined on the whole line
IDENTITY = FunctionSpec(
    f=lambda x: np.asarray(x, dtype=float),
    f_prime_at_mu=1.0,
    domain_check=lambda x: np.isfinite(np.asarray(x, dtype=float)),
    name="identity",
)


def test_qi_log_spec():
    fn = qi_log(2.0)
    assert fn.f(2.0) == 0.0
    assert fn.f(2.0 * math.e) == pytest.approx(2.0, rel=1e-15)
    assert fn.f_prime_at_mu == 1.0
    assert fn.domain_check(0.5) and not fn.domain_check(0.0)
    with pytest.raises(ValueError):
        qi_log(0.0)


def test_qi_log_at_mu_one_is_the_plain_log():
    x = np.concatenate(([1e-300, 0.5, 1.0, 1.5, 1e300],
                        stream(4303, 0).random(1000) * 10.0))
    np.testing.assert_array_equal(qi_log(1.0).f(x), 1.0 * np.log(x / 1.0))
    np.testing.assert_array_equal(qi_log(2.5).f(x), 2.5 * np.log(x / 2.5))


def test_identity_spec():
    fn = IDENTITY
    assert fn.f(-3.5) == -3.5
    assert fn.f_prime_at_mu == 1.0
    assert fn.domain_check(-3.5)


def test_functional_statistic_hand_example():
    path = functional_statistic(X3, IDENTITY, 2.0, math.sqrt(3.0), grid=3)
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
    # verify_fclt takes the horizon n and the path grid as plain counts
    verify_fclt(Exponential(1.0), 100, 8, [1.0], 10, 1)
    with pytest.raises(ValueError, match="n must be"):
        verify_fclt(Exponential(1.0), 0, 8, [1.0], 10, 1)
    with pytest.raises(ValueError, match="grid must be"):
        verify_fclt(Exponential(1.0), 10, 0, [1.0], 10, 1)


def test_log_product_bridge_is_exact():
    # the log of the product statistic IS the qi_log functional at t = 1
    spec = Exponential(1.0)
    n = 400
    x = sample_doa(spec, stream(4301, 0), n)
    a_n = math.sqrt(n)
    lhs = log_product_statistic(x, 1.0, 1.0 / a_n)
    rhs = functional_statistic(x, qi_log(1.0), 1.0, a_n, grid=n).at(1.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_product_statistic_exp_of_log():
    x = sample_doa(Exponential(1.0), stream(4302, 0), 50)
    lo = log_product_statistic(x, 1.0, 0.02)
    assert product_statistic(x, 1.0, 0.02) == pytest.approx(math.exp(lo),
                                                            rel=1e-15)


def test_product_statistic_at_the_mean_is_one():
    x = np.full(20, 1.5)
    assert product_statistic(x, 1.5, 0.3) == 1.0


def test_product_statistic_that_overflows_is_refused_by_name():
    # log = 10 * 2 * log(1e300), past the largest float's log
    with pytest.raises(ValueError, match=r"^the product prod_k \(S_k/\(k\*mu\)\)\*\*exponent "
                       r"= exp\(13815\.51\d*\) overflows$"):
        product_statistic(np.array([1e300, 1e300]), 1.0, 10.0)


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


# Each statistic as one plain numpy expression.  The in-place kernels behind
# the public functions must reproduce these bit for bit: campaign reports are
# pinned to that arithmetic.  The functional sums its terms in aligned blocks
# of 1024: a running sum of the blocks' pairwise sums, then the pairwise sum
# of the cut's own block up to the cut.
def _reference_functional(x, fn, mu, a_n, m):
    n = x.size
    averages = np.cumsum(x) / np.arange(1, n + 1)
    terms = fn.f(averages) - float(np.asarray(fn.f(float(mu))))
    nb = n // 1024
    block_cum = np.concatenate(([0.0], np.cumsum(terms[:nb * 1024].reshape(nb, 1024).sum(axis=1))))
    cuts = n * np.arange(m + 1) // m
    return np.array([block_cum[c // 1024] + terms[c // 1024 * 1024:c].sum() for c in cuts]) / a_n


# The functional as first written, one sequential running sum of all terms;
# the block association moves its values by rounding only.
def _sequential_functional(x, fn, mu, a_n, m):
    n = x.size
    averages = np.cumsum(x) / np.arange(1, n + 1)
    center = float(np.asarray(fn.f(float(mu))))
    terms = np.concatenate(([0.0], np.cumsum(fn.f(averages) - center)))
    return terms[n * np.arange(m + 1) // m] / a_n


def _reference_log_product(x, mu, exponent):
    logs = np.log(np.cumsum(x)) - np.log(np.arange(1, x.size + 1) * mu)
    return float(exponent * logs.sum())


def _reference_riemann(times, values, t, eps):
    idx = np.nonzero((times > eps) & (times <= t))[0]
    return float(np.sum(values[idx] / times[idx] * (times[idx] - times[idx - 1])))


REFERENCE_DRAWS = {"exponential": Exponential(1.0), "pareto 1.5": Pareto(1.5)}


@pytest.mark.parametrize("family", sorted(REFERENCE_DRAWS))
@pytest.mark.parametrize("n, m", [(1000, 64), (300, 4096), (4097, 4096), (10_000, 64)])
def test_kernels_match_reference_expressions(family, n, m):
    spec = REFERENCE_DRAWS[family]
    mu = spec.known_mu
    for r in range(3):
        x = sample_doa(spec, stream(4310, 0, r), n)
        for fn in (qi_log(mu), IDENTITY):
            got = functional_statistic(x, fn, mu, 7.25, m).values
            np.testing.assert_array_equal(got, _reference_functional(x, fn, mu, 7.25, m))
            old = _sequential_functional(x, fn, mu, 7.25, m)
            assert np.all(np.abs(got - old) <= 1e-13 * np.maximum(np.abs(got), 1.0))
        assert log_product_statistic(x, mu, 0.03) == _reference_log_product(x, mu, 0.03)


_KERNEL_N = st.sampled_from([1, 2, 5, 1023, 1024, 1025, 2048, 3000])


@settings(max_examples=60, deadline=None)
@given(n=_KERNEL_N, family=st.sampled_from(sorted(REFERENCE_DRAWS)),
       identity=st.booleans(), data=st.data())
def test_kernel_value_at_a_cut_depends_on_that_cut_alone(n, family, identity, data):
    # unsorted, repeated and zero cuts, n below, at and off the block size
    cut = st.one_of(st.just(0), st.just(n), st.integers(0, n))
    cuts = data.draw(st.lists(cut, min_size=1, max_size=10), label="cuts")
    spec = REFERENCE_DRAWS[family]
    mu = spec.known_mu
    fn = IDENTITY if identity else qi_log(mu)
    x = sample_doa(spec, stream(4313, 0, n), n)
    together = _functional_kernel(fn, mu, 3.5, n, np.array(cuts))(x)
    alone = [_functional_kernel(fn, mu, 3.5, n, np.array([c]))(x)[0] for c in cuts]
    assert together.tolist() == alone
    # against an exactly rounded sum of the same terms
    terms = fn.f(np.cumsum(x) / np.arange(1, n + 1)) - float(np.asarray(fn.f(float(mu))))
    for c, v in zip(cuts, together):
        assert abs(v - math.fsum(terms[:c]) / 3.5) <= 1e-12 * max(abs(v), 1.0)
    # a path on a grid finer than n repeats cuts and starts with cut 0
    m = data.draw(st.integers(n + 1, 4 * n + 8), label="grid")
    path = functional_statistic(x, fn, mu, 3.5, m)
    for j in data.draw(st.lists(st.integers(0, m), min_size=1, max_size=5), label="j"):
        assert path.values[j] == _functional_kernel(fn, mu, 3.5, n, np.array([n * j // m]))(x)[0]


@pytest.mark.parametrize("law", [(1.5, 1.0), (2.0, 0.0), (1.2, -0.5)], ids=str)
def test_levy_path_and_riemann_match_reference_expressions(law):
    m = 256
    for r in range(3):
        path = simulate_levy_path(*law, stream(4311, 0, r), m)
        draws = sample(StableParams(*law, dispersion=1.0 / m), stream(4311, 0, r), m)
        np.testing.assert_array_equal(path.values, np.concatenate(([0.0], np.cumsum(draws))))
        for t, eps in ((1.0, 1.0 / m), (0.5, 0.1), (0.3, 0.29)):
            want = _reference_riemann(path.times, path.values, t, eps)
            assert integral_riemann(path, t, eps) == want
    # a grid that is not uniform
    times = np.concatenate(([0.0], np.sort(stream(4312, 0).random(50)), [1.0]))
    values = stream(4312, 1).standard_normal(times.size)
    path = SamplePath(times=times, values=values)
    for t, eps in ((1.0, 0.01), (0.7, 0.2)):
        assert integral_riemann(path, t, eps) == _reference_riemann(times, values, t, eps)
