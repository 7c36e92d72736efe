"""Attraction-domain families, step paths, and Levy path simulation."""

import math

import numpy as np
import pytest

from stablesums import (
    Degenerate,
    DoaSpec,
    ExactStable,
    Exponential,
    Pareto,
    SamplePath,
    StableParams,
    TwoSidedPareto,
    cdf,
    ks_one_sample,
    ks_two_sample,
    norming_sequence,
    partial_sum_process,
    sample,
    sample_doa,
    simulate_levy_path,
)
from stablesums.rng import stream
from stablesums.verification import _write_csv


def test_exponential_spec():
    spec = Exponential(2.0)
    assert spec.known_mu == 0.5
    assert spec.known_alpha == 2.0
    assert spec.known_beta == 0.0
    assert spec.positivity
    with pytest.raises(ValueError):
        Exponential(0.0)


def test_pareto_spec_heavy_and_light():
    heavy = Pareto(1.5)
    assert heavy.known_alpha == 1.5 and heavy.known_beta == 1.0
    assert heavy.known_mu == 3.0
    light = Pareto(3.0)
    assert light.known_alpha == 2.0 and light.known_beta == 0.0
    assert light.known_mu == 1.5
    shifted = Pareto(1.5, x_min=2.0, shift=-1.0)
    assert shifted.known_mu == 5.0
    assert shifted.positivity  # support starts at x_min + shift = 1


def test_pareto_rejects_unnormable_indices():
    with pytest.raises(ValueError):
        Pareto(2.0)
    with pytest.raises(ValueError):
        Pareto(1.0)
    with pytest.raises(ValueError):
        Pareto(0.7)


def test_two_sided_pareto_spec():
    spec = TwoSidedPareto(1.5, 0.4)
    assert spec.known_alpha == 1.5
    assert spec.known_beta == 0.4
    assert spec.known_mu == pytest.approx(0.4 * 1.5 / 0.5)
    assert not spec.positivity
    assert TwoSidedPareto(1.5, 1.0).positivity
    with pytest.raises(ValueError):
        TwoSidedPareto(1.5, 1.5)


def test_exact_stable_and_degenerate_specs():
    law = StableParams(1.7, -0.2, 2.0, 0.9)
    spec = ExactStable(law)
    assert spec.known_alpha == 1.7 and spec.known_beta == -0.2
    assert spec.known_mu == 0.9
    with pytest.raises(ValueError):
        ExactStable(StableParams(0.9, 0.0))
    point = Degenerate(4.0)
    assert point.known_mu == 4.0 and point.known_alpha == 2.0


def test_sample_doa_marginals():
    # Pareto median has the closed form x_min * 2**(1/tail)
    x = sample_doa(Pareto(1.5), stream(4004, 0), 200_000)
    assert float(np.median(x)) == pytest.approx(2 ** (1 / 1.5), rel=0.01)
    assert float(x.min()) >= 1.0
    e = sample_doa(Exponential(2.0), stream(4005, 0), 200_000)
    assert float(e.mean()) == pytest.approx(0.5, rel=0.02)
    d = sample_doa(Degenerate(-1.5), stream(1, 0), 7)
    np.testing.assert_array_equal(d, np.full(7, -1.5))


def test_sample_doa_deterministic():
    spec = TwoSidedPareto(1.8, -0.3)
    a = sample_doa(spec, stream(6, 0), 100)
    b = sample_doa(spec, stream(6, 0), 100)
    np.testing.assert_array_equal(a, b)


# name: (spec, first five draws of sample_doa(spec, stream(3, 1), 1000),
#        (a_n, b_n) at n = 1, 100, 10**4), bit for bit
PINNED = {
    "exponential rate 1": (
        Exponential(1.0),
        [0.606362135429451, 0.043991044737947044, 0.1558085618064331,
         3.2713240713508545, 0.947180577787414],
        [(1.0, 1.0), (10.0, 100.0), (100.0, 10000.0)]),
    "exponential": (
        Exponential(2.0),
        [0.3031810677147255, 0.021995522368973522, 0.07790428090321655,
         1.6356620356754272, 0.473590288893707],
        [(0.5, 0.5), (5.0, 50.0), (50.0, 5000.0)]),
    "pareto heavy": (
        Pareto(1.5, 2.0, 0.5),
        [3.150696197997292, 2.5295507471957577, 3.0333703013664683,
         13.076178340823416, 7.197733631895373],
        [(3.6905402972880568, 6.5), (79.5102804143797, 650.0),
         (1712.9970633890223, 65000.0)]),
    "pareto light": (
        Pareto(3.0),
        [1.1512376379352118, 1.0073605976004216, 1.1254710794521707,
         2.5076062630348703, 1.8299909332965796],
        [(0.8660254037844386, 1.5), (8.660254037844386, 150.0),
         (86.60254037844386, 15000.0)]),
    "two-sided pareto": (
        TwoSidedPareto(1.7, -0.4),
        [-1.2821481189904242, 1.013025825184723, 1.2319412895072528,
         -5.06495179339506, -2.904993632175809],
        [(2.195723088089918, -0.9714285714285715),
         (32.964626298607804, -97.14285714285715),
         (494.90147136548427, -9714.285714285716)]),
    "exact stable": (
        ExactStable(StableParams(1.5, 0.5, 2.0, 1.0)),
        [-0.4738564951006454, -2.5392483390088296, -0.2886342808601514,
         4.091167516597364, 3.403749829615768],
        [(1.5874010519681994, 1.0), (34.19951893353393, 100.0),
         (736.806299728077, 10000.0)]),
    "degenerate": (
        Degenerate(3.0),
        [3.0] * 5,
        [(1.0, 3.0), (10.0, 300.0), (100.0, 30000.0)]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_family_draws_and_norming_are_pinned(name):
    spec, draws, norming = PINNED[name]
    assert sample_doa(spec, stream(3, 1), 1000)[:5].tolist() == draws
    assert [norming_sequence(spec, n) for n in (1, 100, 10**4)] == norming


def test_doa_spec_refuses_an_unknown_family():
    with pytest.raises(TypeError):
        DoaSpec(family="bogus", known_mu=0.0, known_alpha=2.0, known_beta=0.0,
                positivity=False)


def test_sample_path_evaluation():
    path = SamplePath(times=np.array([0.0, 0.25, 1.0]),
                      values=np.array([1.0, -2.0, 5.0]))
    assert path.at(0.0) == 1.0
    assert path.at(0.1) == 1.0
    assert path.at(0.25) == -2.0  # right-continuous at the jump
    assert path.at(0.9) == -2.0
    assert path.at(1.0) == 5.0
    assert path(0.3) == -2.0  # __call__ alias
    np.testing.assert_array_equal(path.at([0.0, 0.25, 0.5, 1.0]),
                                  [1.0, -2.0, -2.0, 5.0])
    with pytest.raises(ValueError):
        path.at(-0.01)
    with pytest.raises(ValueError):
        path.at(1.01)
    with pytest.raises(ValueError):
        path.at(float("nan"))
    with pytest.raises(ValueError):
        path.at([0.5, float("nan")])


def test_sample_path_validation():
    with pytest.raises(ValueError):
        SamplePath(times=np.array([0.0, 0.5, 0.5, 1.0]),
                   values=np.zeros(4))
    with pytest.raises(ValueError):
        SamplePath(times=np.array([0.1, 1.0]), values=np.zeros(2))
    with pytest.raises(ValueError):
        SamplePath(times=np.array([0.0, 0.9]), values=np.zeros(2))
    with pytest.raises(ValueError):
        SamplePath(times=np.array([0.0, 1.0]), values=np.array([0.0, math.inf]))
    with pytest.raises(ValueError):
        SamplePath(times=np.array([0.0, 0.5, 1.0]), values=np.zeros(2))
    with pytest.raises(ValueError, match="^a path needs at least the two endpoints 0 and 1$"):
        SamplePath(times=np.array([0.0]), values=np.zeros(1))


def test_sample_path_csv(tmp_path):
    path = SamplePath(times=np.array([0.0, 0.5, 1.0]),
                      values=np.array([0.0, -1.25, 3.0]))
    name = _write_csv(tmp_path, "path.csv", "t,value", path.times, path.values)
    with open(tmp_path / name) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,value"
    assert lines[1] == "0.0,0.0"
    assert lines[2] == "0.5,-1.25"
    assert len(lines) == 4


def test_partial_sum_process_hand_example():
    # x = (2, 0, 4), mu = 2, a = sqrt(3), grid of 3 cells
    path = partial_sum_process(np.array([2.0, 0.0, 4.0]), 2.0,
                               math.sqrt(3.0), grid=3)
    np.testing.assert_allclose(path.times, [0.0, 1 / 3, 2 / 3, 1.0])
    assert path.at(0.0) == 0.0
    assert path.at(1 / 3) == 0.0
    assert path.at(2 / 3) == pytest.approx(-2 / math.sqrt(3.0), abs=1e-15)
    assert path.at(1.0) == 0.0


def test_partial_sum_process_centered_constants():
    path = partial_sum_process(np.full(6, 2.5), 2.5, 3.0, grid=4)
    np.testing.assert_array_equal(path.values, np.zeros(5))


def test_partial_sum_process_centers_each_draw():
    # k * 0.1 is not the sum of k draws of 0.1: centering after summing left 1e-12
    path = partial_sum_process(np.full(1000, 0.1), 0.1, 1.0, grid=8)
    np.testing.assert_array_equal(path.values, np.zeros(9))


def test_partial_sum_process_integer_cut():
    # n < grid: k = floor(n j / grid) repeats values instead of interpolating
    path = partial_sum_process(np.array([1.0, 3.0]), 0.0, 1.0, grid=4)
    np.testing.assert_array_equal(path.values, [0.0, 0.0, 1.0, 1.0, 4.0])


def test_partial_sum_process_validation():
    with pytest.raises(ValueError):
        partial_sum_process(np.array([]), 0.0, 1.0)
    with pytest.raises(ValueError):
        partial_sum_process(np.array([1.0, math.nan]), 0.0, 1.0)
    with pytest.raises(ValueError):
        partial_sum_process(np.array([1.0]), 0.0, 0.0)
    with pytest.raises(ValueError):
        partial_sum_process(np.array([1.0]), 0.0, 1.0, grid=0)


@pytest.mark.parametrize("state", ["ignore", "raise"])
def test_partial_sums_that_overflow_are_refused_by_name(state):
    # alike under the library's default and under a caller that raises
    with np.errstate(over=state):
        with pytest.raises(ValueError, match="^partial sums must be finite: .* overflows$"):
            partial_sum_process(np.array([1e308, 1e308]), 0.0, 1.0)


@pytest.mark.parametrize("x, mu, a_n, grid, message", [
    # the centering x - mu overflows
    ([1e308], -1e308, 1.0, 4, "partial sums must be finite"),
    # the division by a_n overflows
    ([1e308, 7e307], 0.0, 1e-10, 2, "path values must be finite"),
])
def test_partial_sum_process_refuses_without_a_warning(x, mu, a_n, grid, message):
    # warnings are errors here: a RuntimeWarning would stand in for the refusal
    with pytest.raises(ValueError, match=f"^{message}"):
        partial_sum_process(np.array(x), mu, a_n, grid)


def test_levy_path_shape_and_start():
    path = simulate_levy_path(1.5, 1.0, stream(2, 0), grid=32)
    assert path.times.size == 33
    assert path.values[0] == 0.0
    with pytest.raises(ValueError):
        simulate_levy_path(1.0, 0.0, stream(2, 0), grid=32)
    with pytest.raises(ValueError):
        simulate_levy_path(1.5, 0.0, stream(2, 0), grid=0)


@pytest.fixture(scope="module")
def levy_marginals():
    alpha, beta, reps, m = 1.6, 0.5, 3000, 16
    v1 = np.empty(reps)
    vh = np.empty(reps)
    for r in range(reps):
        p = simulate_levy_path(alpha, beta, stream(4001, 0, r), m)
        v1[r] = p.at(1.0)
        vh[r] = p.at(0.5)
    return alpha, beta, v1, vh


def test_levy_marginal_at_one(levy_marginals):
    alpha, beta, v1, _ = levy_marginals
    direct = sample(StableParams(alpha, beta, 1.0), stream(4001, 1), v1.size)
    stat, p = ks_two_sample(v1, direct)
    assert p > 0.01, (stat, p)


def test_levy_marginal_at_half(levy_marginals):
    alpha, beta, _, vh = levy_marginals
    direct = sample(StableParams(alpha, beta, 0.5), stream(4001, 2), vh.size)
    stat, p = ks_two_sample(vh, direct)
    assert p > 0.01, (stat, p)


def test_levy_self_similarity(levy_marginals):
    # the t=1/2 marginal matches t**(1/alpha)-scaled copies of the t=1 law
    alpha, beta, _, vh = levy_marginals
    direct = sample(StableParams(alpha, beta, 1.0), stream(4001, 1), vh.size)
    stat, p = ks_two_sample(vh, 0.5 ** (1 / alpha) * direct)
    assert p > 0.01, (stat, p)


def test_levy_grid_refinement_invariant():
    # doubling the grid leaves every dyadic marginal's law unchanged
    va = np.empty(2000)
    vb = np.empty(2000)
    for r in range(2000):
        va[r] = simulate_levy_path(1.5, 1.0, stream(4002, 0, r), 64).at(1.0)
        vb[r] = simulate_levy_path(1.5, 1.0, stream(4002, 1, r), 128).at(1.0)
    stat, p = ks_two_sample(va, vb)
    assert p > 0.01, (stat, p)


def test_partial_sums_invariance_principle():
    # rescaled exponential sums at t = 1/2 against the N(0, 1/2) marginal
    spec = Exponential(1.0)
    reps, n = 1500, 4000
    vals = np.empty(reps)
    a_n = math.sqrt(n)
    for r in range(reps):
        x = sample_doa(spec, stream(4003, 0, r), n)
        vals[r] = partial_sum_process(x, 1.0, a_n, grid=8).at(0.5)
    stat, p = ks_one_sample(vals, lambda y: cdf(StableParams(2.0, 0.0, 0.5), y))
    assert p > 0.01, (stat, p)


class _DriftSource:
    """Deterministic k-th partial sum k*mu; not iid, still a valid source."""

    mu = 2.0
    alpha = 2.0
    beta = 0.0

    def scale(self, n):
        return math.sqrt(n)

    def partial_sums(self, seed, n):
        return self.mu * np.arange(1, n + 1, dtype=float)


def test_custom_source_centers_to_zero():
    src = _DriftSource()
    sums = src.partial_sums(stream(0, 0), 50)
    path = partial_sum_process(np.diff(np.concatenate(([0.0], sums))),
                               src.mu, src.scale(50), grid=10)
    np.testing.assert_allclose(path.values, np.zeros(11), atol=1e-12)
