"""KS machinery, report serialization, and the verification campaigns."""

import json
import math
import os
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from reference_ecf import reference_empirical_char_fn
from scipy.special import erf, kolmogorov

from stablesums import (
    Degenerate,
    DoaSpec,
    Exponential,
    Pareto,
    SamplePath,
    StableParams,
    TwoSidedPareto,
    VerificationReport,
    cdf,
    char_fn,
    ecdf,
    empirical_char_fn,
    functional_statistic,
    integral_riemann,
    ks_one_sample,
    ks_two_sample,
    log_product_statistic,
    qi_log,
    sample,
    sample_doa,
    simulate_levy_path,
    verify_fclt,
    verify_lemma,
    verify_product,
    verify_remark,
    verify_sampler,
)
from stablesums.functionals import _riemann_kernel
from stablesums.rng import stream
from stablesums.verification import (
    _ECF_CHUNK,
    _MAX_SAMPLER_N,
    _common_step,
    _ecf_kernel,
    _frequency_grid,
    _half_dispersion,
    _json,
    _kolmogorov_sf,
    _marginal_fits,
    _write_csv,
)


def test_ecdf_hand_example():
    F = ecdf([1.0, 2.0, 2.0, 4.0])
    assert F(0.5) == 0.0
    assert F(1.0) == 0.25
    assert F(2.0) == 0.75
    assert F(3.0) == 0.75
    assert F(4.0) == 1.0
    np.testing.assert_array_equal(F(np.array([1.0, 3.0])), [0.25, 0.75])
    with pytest.raises(ValueError):
        F(float("nan"))


def test_ks_two_sample_hand_example():
    stat, p = ks_two_sample([1.0, 2.0, 3.0], [1.5, 2.5, 3.5])
    assert stat == pytest.approx(1 / 3, abs=1e-15)
    assert 0.0 < p <= 1.0


def test_ks_two_sample_matches_brute_force():
    a = stream(4406, 0).standard_normal(137)
    b = stream(4406, 1).standard_normal(211) * 1.3
    stat, _ = ks_two_sample(a, b)
    Fa, Fb = ecdf(a), ecdf(b)
    brute = max(abs(Fa(v) - Fb(v)) for v in np.concatenate([a, b]))
    assert stat == brute


def test_ks_two_sample_identical_samples():
    x = [0.0, 1.0, 5.0]
    stat, p = ks_two_sample(x, x)
    assert stat == 0.0
    assert p == 1.0


def test_ks_two_sample_disjoint_supports():
    stat, p = ks_two_sample([1.0, 2.0], [10.0, 11.0, 12.0])
    assert stat == 1.0
    assert p < 0.2


def test_ecdf_single_sample_step():
    F = ecdf([3.0])
    assert F(2.999) == 0.0
    assert F(3.0) == 1.0


def test_empirical_char_fn_edge_values():
    x = stream(1, 0).standard_normal(100)
    assert empirical_char_fn(x, 0.0) == 1.0 + 0.0j
    assert empirical_char_fn(np.zeros(5), 3.7) == 1.0 + 0.0j


@pytest.mark.parametrize("x,t", [
    (np.array([10.0, 1.0]), 1e308),                           # the outer product
    (np.array([1e300, -2.0]), np.linspace(-1e10, 1e10, 5)),   # a mirrored grid
    (np.array([1e300]), np.linspace(1e9, 1e10, 4)),           # a one-sided grid
])
def test_empirical_char_fn_refuses_an_overflowing_product(x, t):
    # some t*x is inf, where cos and sin give nan
    with pytest.raises(ValueError, match="overflows"):
        empirical_char_fn(x, t)


@pytest.mark.parametrize("t", [math.nan, -math.inf, [0.5, math.inf]])
def test_empirical_char_fn_refuses_non_finite_t(t):
    with pytest.raises(ValueError, match="^t must be finite$"):
        empirical_char_fn(np.array([0.5, -1.0]), t)


def test_empirical_char_fn_is_finite_up_to_the_largest_product():
    got = empirical_char_fn(np.array([10.0, -1.0]), np.array([-1.7e307, 0.0, 1.7e307]))
    assert np.isfinite(got).all()


def test_ecf_grid_whose_span_overflows_takes_the_outer_product():
    # t[-1] - t[0] = 3e308 overflows, though every t*x is finite
    x, t = np.array([1e-10, 0.5]), np.array([-1.5e308, 0.0, 1.5e308])
    assert _common_step(t) is None
    direct = np.exp(1j * np.outer(t, x)).mean(axis=1)
    np.testing.assert_array_equal(empirical_char_fn(x, t), direct)


def test_ks_one_sample_uniforms():
    u = stream(4401, 0).random(100_000)
    stat, p = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0))
    assert stat < 0.006
    assert p > 0.05


def test_ks_one_sample_point_mass():
    # all mass at the continuous law's median leaves a one-sided gap of 1/2
    stat, _ = ks_one_sample(np.zeros(50),
                            lambda x: 0.5 * (1 + erf(x / math.sqrt(2))))
    assert stat == 0.5


def test_ks_one_sample_rejects_wrong_law():
    x = stream(4402, 0).standard_normal(10_000)
    stat, p = ks_one_sample(x, lambda y: 0.5 + np.arctan(y) / math.pi)
    assert stat > 0.05
    assert p < 1e-20


def test_ks_one_sample_refuses_bad_cdf_output():
    u = stream(4401, 0).random(10)
    for bad in (lambda x: 0.5, lambda x: x[:-1], lambda x: x + 1.0,
                lambda x: np.full(x.shape, np.nan)):
        with pytest.raises(ValueError):
            ks_one_sample(u, bad)


def test_ks_one_sample_dkw_band():
    # the distribution-free band at delta = 1e-3 should almost never trip
    N, trials, delta = 500, 1000, 1e-3
    bound = math.sqrt(math.log(2 / delta) / (2 * N))
    fails = 0
    for r in range(trials):
        u = stream(4403, r).random(N)
        s, _ = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0))
        fails += s > bound
    assert fails <= 1, fails


def test_ecdf_tracks_normal_cdf():
    x = stream(4404, 0).standard_normal(1_000_000)
    F = ecdf(x)
    for g in np.linspace(-4, 4, 81):
        want = 0.5 * (1 + math.erf(g / math.sqrt(2)))
        assert abs(F(float(g)) - want) < 2e-3


def test_empirical_char_fn_is_plain_mean():
    x = stream(4405, 0).standard_normal(1000)
    t = np.array([0.3, 1.7])
    direct = np.exp(1j * t[:, None] * x[None, :]).mean(axis=1)
    np.testing.assert_allclose(empirical_char_fn(x, t), direct,
                               rtol=0, atol=5e-16)


CRITERION_1_LAWS = [(2.0, 0.0), (1.5, 0.0), (1.5, 1.0), (1.2, 0.5)]
ARITHMETIC_GRIDS = {
    "library-default": np.arange(-50, 51) / 10.0,  # exactly symmetric
    "cli-default": -5.0 + 0.1 * np.arange(101),  # 2 ulps off symmetric at its ends
    "asymmetric": np.array([0.5, 1.5, 2.5, 3.5]),
    "even-count": -0.25 + 0.1 * np.arange(6),  # mirrored, no zero
    "partly-mirrored": -2.0 + 0.1 * np.arange(71),
    "off-mirror": -0.27 + 0.1 * np.arange(11),  # mirrors fall off the grid
    "all-negative": -5.0 + 0.1 * np.arange(41),
    "decreasing": 5.0 - 0.1 * np.arange(101),
    "constant": np.array([2.5] * 3),
    "constant-zero": np.array([0.0] * 3),
}


@pytest.fixture(scope="module", params=CRITERION_1_LAWS, ids=str)
def criterion_1_draws(request):
    # 40_007 is not a multiple of the 2**14 chunk, so a partial chunk is summed
    return sample(StableParams(*request.param), stream(4410, 0), 40_007)


@pytest.mark.parametrize("name", sorted(ARITHMETIC_GRIDS))
def test_ecf_matrix_product_path_matches_outer_product(criterion_1_draws, name):
    x, t = criterion_1_draws, ARITHMETIC_GRIDS[name]
    assert _common_step(t) is not None  # the matrix-product path is the one tested
    direct = np.exp(1j * np.outer(t, x)).mean(axis=1)
    np.testing.assert_allclose(empirical_char_fn(x, t), direct,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(ARITHMETIC_GRIDS))
def test_ecf_power_recurrence_matches_outer_product(criterion_1_draws, name):
    # the oracle of tests/reference_ecf.py holds to the outer product as
    # closely as the kernel it checks
    x, t = criterion_1_draws, ARITHMETIC_GRIDS[name]
    direct = np.exp(1j * np.outer(t, x)).mean(axis=1)
    np.testing.assert_allclose(reference_empirical_char_fn(x, t), direct,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [np.array([0.3, 1.7]), np.array([2.5]), 2.5],
                         ids=["two-point", "one-point", "scalar"])
def test_ecf_short_grids_match_outer_product(criterion_1_draws, t):
    x = criterion_1_draws
    direct = np.exp(1j * np.outer(t, x)).mean(axis=1)
    got = empirical_char_fn(x, t)
    assert np.ndim(got) == np.ndim(t)
    np.testing.assert_allclose(np.atleast_1d(got), direct, rtol=0, atol=1e-12)


def test_ecf_is_conjugate_symmetric_on_a_symmetric_grid(criterion_1_draws):
    t = ARITHMETIC_GRIDS["library-default"]
    got = empirical_char_fn(criterion_1_draws, t)
    np.testing.assert_array_equal(got[::-1], got.conj())


@pytest.mark.parametrize("shape", [(2, 3), (2, 2)], ids=str)
def test_ecf_keeps_the_shape_of_a_multidimensional_t(criterion_1_draws, shape):
    x = criterion_1_draws
    t = np.arange(math.prod(shape)).reshape(shape) / 10.0
    got = empirical_char_fn(x, t)
    assert got.shape == shape
    direct = np.exp(1j * np.outer(t.ravel(), x)).mean(axis=1).reshape(shape)
    np.testing.assert_allclose(got, direct, rtol=0, atol=1e-12)


def test_ecf_memory_stays_of_order_one_chunk():
    # the outer product of the default grid with one chunk takes 53 MB
    x = sample(StableParams(1.0, 0.0), stream(4413, 0), 2**14)
    t = -5.0 + 0.1 * np.arange(101)
    tracemalloc.start()
    try:
        empirical_char_fn(x, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_ecf_memory_stays_bounded_on_a_non_arithmetic_grid():
    # the outer product of 200 frequencies with one chunk would take 75 MiB;
    # the kernel takes it 16 frequencies at a time
    x = sample(StableParams(1.5, 0.0), stream(4415, 0), 2**14)
    t = stream(4415, 1).uniform(-5.0, 5.0, 200)
    assert _common_step(t) is None
    tracemalloc.start()
    try:
        empirical_char_fn(x, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_ecf_workspace_stays_bounded_on_the_largest_grid():
    # 10**5 frequencies, the most a --t-step may give: the kernel's workspace
    # is at most 33 rows of 4096 draws, beside the sums and the mean
    x = sample(StableParams(1.5, 0.0), stream(4414, 0), 2**14)
    t = -5.0 + 10.0 * np.arange(10**5) / (10**5 - 1)
    tracemalloc.start()
    try:
        empirical_char_fn(x, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


# A 10**4-point grid mirrored about 0 without it: 5000 distinct |t|, whose
# powers the kernel takes in 20 groups of 16 giant steps
WIDE_GRID = -5.0 + 10.0 * np.arange(10**4) / (10**4 - 1)


def _fsum_ecf(x, t):
    """The mean of exp(i*t*x) at each t, as a math.fsum of the cos and of
    the sin of t*x over the draws."""
    out = np.empty(t.size, dtype=complex)
    for i, tk in enumerate(t.tolist()):
        y = tk * x
        out[i] = complex(math.fsum(np.cos(y).tolist()), math.fsum(np.sin(y).tolist()))
    return out / x.size


@pytest.mark.parametrize("name", [*sorted(ARITHMETIC_GRIDS), "wide"])
def test_ecf_matrix_product_matches_the_recurrence_and_fsum(criterion_1_draws, name):
    x = criterion_1_draws
    t = WIDE_GRID if name == "wide" else ARITHMETIC_GRIDS[name]
    got, oracle = empirical_char_fn(x, t), reference_empirical_char_fn(x, t)
    np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)
    # 4 * 10**8 cos and sin would take minutes: the wide grid is held to the
    # exact sums at every 100th frequency and the last, the others at each t
    at = np.unique(np.append(np.arange(0, t.size, 100 if name == "wide" else 1), t.size - 1))
    exact = _fsum_ecf(x, t[at])
    np.testing.assert_allclose(got[at], exact, rtol=0, atol=2e-15)
    np.testing.assert_allclose(oracle[at], exact, rtol=0, atol=2e-15)


def test_ecf_non_arithmetic_grid_is_exact_outer_product(criterion_1_draws):
    x, t = criterion_1_draws, np.array([0.3, 1.7, 4.0])
    assert _common_step(t) is None
    chunk = 2**14
    acc = np.zeros(t.size, dtype=complex)
    for start in range(0, x.size, chunk):
        acc += np.exp(1j * np.outer(t, x[start : start + chunk])).sum(axis=1)
    np.testing.assert_array_equal(empirical_char_fn(x, t), acc / x.size)


@pytest.mark.parametrize("t", [np.array([2.5]), np.array([0.3, 1.7, 4.0]),
                               ARITHMETIC_GRIDS["cli-default"]],
                         ids=["one-point", "non-arithmetic", "arithmetic"])
def test_ecf_kernel_sums_draws_alike_in_one_call_or_in_chunks(criterion_1_draws, t):
    # verify_sampler adds its draws a chunk at a time, empirical_char_fn in
    # one call; the running sums take the same bits
    x = criterion_1_draws
    add_draws = _ecf_kernel(t)
    for start in range(0, x.size, _ECF_CHUNK):
        chunked = add_draws(x[start : start + _ECF_CHUNK])
    assert chunked.tobytes() == _ecf_kernel(t)(x).tobytes()


@pytest.mark.parametrize("t", [[], np.zeros((0, 3))], ids=["empty", "0x3"])
def test_ecf_of_an_empty_grid_is_empty(t):
    got = empirical_char_fn(np.array([0.5, -1.0]), t)
    assert got.shape == np.shape(t) and got.dtype == complex


@pytest.mark.parametrize("t_grid", [[], [[0.5, 1.0]], [0.5, math.nan], [math.inf]],
                         ids=["empty", "2-d", "nan", "inf"])
def test_verify_sampler_refuses_a_bad_frequency_grid(t_grid):
    with pytest.raises(ValueError, match="^t_grid must be a nonempty finite 1-d array$"):
        verify_sampler(StableParams(1.5, 0.0), 10, 1, t_grid=t_grid)


def test_default_frequency_grid_keeps_its_bits():
    assert _frequency_grid().tobytes() == (-5.0 + 0.1 * np.arange(101)).tobytes()


def test_frequency_grid_counts_steps_when_its_slack_overflows():
    # t_max - t_min is finite, but t_max - t_min + 8 ulps is not
    t_max = 1.7976931348623157e308
    grid = _frequency_grid(0.0, t_max, 1e305)
    assert grid.tobytes() == (0.0 + 1e305 * np.arange(1798)).tobytes()
    assert grid[-1] <= t_max


def test_frequency_grid_sweep_keeps_its_points():
    # decimal grids, whose step counts land within rounding of an integer, and
    # whole numbers of steps: counted as the span plus the slack, over the step
    rng = stream(4416, 0)
    for i in range(2000):
        if i % 2:
            t_step = float(rng.choice([0.1, 0.01, 0.05, 0.3, 0.7, 1e-3, 1 / 3]))
            t_min = float(rng.integers(-1000, 1000)) * float(rng.choice([0.01, 0.1, 1.0]))
            t_max = t_min + t_step * int(rng.integers(1, 5000))
        else:
            scale = 10.0 ** -int(rng.integers(0, 6))
            t_min, t_max = sorted(rng.integers(-10**4, 10**4, 2) * scale)
            t_step = int(rng.integers(1, 1000)) * 10.0 ** -int(rng.integers(0, 6))
        slack = 8 * math.ulp(max(abs(t_min), abs(t_max)))
        steps = (t_max - t_min + slack) / t_step
        if not t_min < t_max or not steps < 10**5:
            continue
        want = t_min + t_step * np.arange(math.floor(steps) + 1)
        assert _frequency_grid(t_min, t_max, t_step).tobytes() == want.tobytes(), (
            t_min, t_max, t_step)


def _no_draws(monkeypatch):
    import stablesums.verification as verification

    def fail(*args, **kwargs):
        pytest.fail("drew before refusing")
    monkeypatch.setattr(verification, "sample", fail)


def test_verify_sampler_refuses_an_n_above_its_bound_before_drawing(monkeypatch):
    _no_draws(monkeypatch)
    for n in (_MAX_SAMPLER_N + 1, 2**62, 2**64):
        with pytest.raises(ValueError, match=rf"^n must be in \[1, 1e\+09\], got {n}$"):
            verify_sampler(StableParams(1.5, 0.5), n, 0)


def test_verify_sampler_refuses_a_dispersion_whose_control_overflows(monkeypatch):
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"^dispersion 1\.7e\+308 is too large: the "
                                         r"control's doubled dispersion overflows$"):
        verify_sampler(StableParams(1.5, 0.5, 1.7e308), 20, 0)


@pytest.mark.parametrize("grid", [2, 3, 16, 4096, 10**6])
def test_default_truncation_is_the_first_cell(grid):
    times = np.arange(grid + 1) / grid
    _, eps = _riemann_kernel(times, 1.0)
    assert eps == 1.0 / grid and type(eps) is float


def test_verify_sampler_draws_in_fixed_chunks(tmp_path):
    params = StableParams(1.5, 1.0)
    verify_sampler(params, 2**14 + 1, 4411, out_dir=str(tmp_path))
    head = sample(params, stream(4411, 0), 2**14)[:5000]
    want = "value\n" + "".join(f"{v!r}\n" for v in head.tolist())
    assert (tmp_path / "samples.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("law", CRITERION_1_LAWS, ids=str)
def test_verify_sampler_worst_t_matches_direct_ecf(law):
    # |ECF - char fn| is even in t, so its maximum ties at +-t whatever the
    # law; the report must name +t however the kernel's sums round.
    params, n, seed = StableParams(*law), 40_007, 4412
    rep = verify_sampler(params, n, seed, threshold=1.0)
    rng = stream(seed, 0)
    x = np.concatenate([sample(params, rng, min(2**14, n - s))
                        for s in range(0, n, 2**14)])
    t = -5.0 + 0.1 * np.arange(101)  # the default grid, not symmetric to the bit
    direct = np.array([np.exp(1j * tk * x).mean() for tk in t])
    gaps = np.abs(direct - char_fn(params, t))
    tied = t[gaps >= gaps.max() * (1.0 - 1e-12)]
    assert rep.details["worst_t"] == tied.max() > 0
    np.testing.assert_allclose(np.abs(tied), rep.details["worst_t"], rtol=1e-15)


def test_ks_one_sample_perfect_fit_p_value():
    u = (np.arange(10**4) + 0.5) / 10**4
    stat, p = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0))
    assert stat == pytest.approx(0.5e-4, abs=1e-15)
    assert p == 1.0


@pytest.mark.parametrize("lo,hi", [(0.0, 0.82), (0.82, 8.0), (8.0, 27.0)])
def test_kolmogorov_sf_matches_scipy(lo, hi):
    y = np.linspace(lo, hi, 20001)[1:]
    want = kolmogorov(y)
    got = np.array([_kolmogorov_sf(v) for v in y.tolist()])
    normal = want > 1e-300
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0)
    assert np.all(got[~normal] <= 1e-300)


def test_kolmogorov_sf_at_the_switch_and_below_zero():
    # the theta series below y = 0.82 and the alternating series from it on
    # meet within rounding, so the survival function still does not increase
    switch = 0.82 + math.ulp(0.82) * np.arange(-64, 65)
    for y in (0.82, *switch.tolist()):
        assert _kolmogorov_sf(y) == pytest.approx(float(kolmogorov(y)), rel=1e-13, abs=0)
    steps = [_kolmogorov_sf(y) for y in switch.tolist()]
    assert all(b <= a for a, b in zip(steps, steps[1:]))
    grid = [_kolmogorov_sf(y) for y in np.linspace(0.0, 20.0, 40001).tolist()]
    assert all(b <= a for a, b in zip(grid, grid[1:]))
    assert grid[0] == 1.0 and grid[-1] == 0.0
    assert [_kolmogorov_sf(y) for y in (-math.inf, -1.0, -0.0, 0.0, 5e-324, 0.05)] == [1.0] * 6
    assert _kolmogorov_sf(math.inf) == 0.0
    assert math.isnan(_kolmogorov_sf(math.nan))


def _write_csv_at_once(path, header, *columns):
    """The reference: every row formatted and joined in one pass."""
    cells = [map(repr if np.asarray(c).dtype.kind == "f" else str, np.asarray(c).tolist())
             for c in columns]
    path.write_text(header + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells)))


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 10000])
def test_write_csv_in_blocks_matches_one_pass(tmp_path, rows):
    values = sample(StableParams(1.5, 0.5), stream(4421, 0), rows)
    columns = (np.arange(rows), values, np.repeat(np.array(["a", "b"]), -(-rows // 2))[:rows])
    assert _write_csv(tmp_path, "blocks.csv", "rep,value,tag", *columns) == "blocks.csv"
    _write_csv_at_once(tmp_path / "once.csv", "rep,value,tag", *columns)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()


# the column mixes the program writes: samples.csv, charfn_fit.csv, draws.csv,
# statistics.csv and norming.csv, ratios.csv, and path_*.csv with its t
# column formatted once as numpy strings
_CSV_MIXES = ["f", "fffff", "if", "iff", "iffff", "sf"]
_CSV_EDGES = [-0.0, 5e-324, 1.7976931348623157e308, 1e-05, 1e+16, math.inf, -math.inf,
              math.nan]


def _mix_column(kind, rows, key):
    """``rows`` cells of a column of ``kind`` (i int, f float, s numpy str),
    the floats starting with the edge values."""
    if kind == "i":
        return np.arange(rows) * 7919
    values = sample(StableParams(1.5, 0.5), stream(4427, key), rows)
    values[:len(_CSV_EDGES)] = _CSV_EDGES[:rows]
    if kind == "s":
        return np.array([repr(v) for v in values.tolist()])
    return values


@pytest.mark.parametrize("ragged", [False, True], ids=["even", "ragged"])
@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("mix", _CSV_MIXES)
def test_write_csv_matches_cell_by_cell_formatting(tmp_path, mix, rows, ragged):
    # a ragged file's columns grow shorter left to right; it stops at the last
    lengths = [rows + 3 * ragged * (len(mix) - 1 - i) for i in range(len(mix))]
    columns = [_mix_column(kind, length, i) for i, (kind, length) in enumerate(zip(mix, lengths))]
    header = ",".join(f"c{i}" for i in range(len(mix)))
    assert _write_csv(tmp_path, "blocks.csv", header, *columns) == "blocks.csv"
    _write_csv_at_once(tmp_path / "once.csv", header, *columns)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()
    assert len((tmp_path / "blocks.csv").read_bytes().splitlines()) == 1 + min(lengths)


def test_write_csv_memory_stays_of_order_one_block(tmp_path):
    # formatting all 10**5 rows at once peaks at about 10 MB
    values = sample(StableParams(1.5, 0.0), stream(4423, 0), 10**5)
    tracemalloc.start()
    try:
        _write_csv(tmp_path, "samples.csv", "value", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_report_roundtrip_and_campaign_logic():
    rep = VerificationReport(
        test_name="t", seed=1, n=2, reps=3, statistic=0.5, threshold=1.0,
        direction="leq", passed=True, config={"a": 1}, details={"b": [1.0]},
        negative_control={"name": "c", "statistic": 2.0, "threshold": 1.0,
                          "direction": "leq", "passed": False},
        artifacts=["x.csv"],
    )
    assert rep.campaign_passed
    assert VerificationReport(**json.loads(rep.to_json())) == rep
    # a control that also passes invalidates the campaign
    rep.negative_control["passed"] = True
    assert not rep.campaign_passed


@pytest.fixture(scope="module")
def small_campaigns():
    """One cheap run of every campaign, shared across assertions."""
    return {
        "sampler": verify_sampler(StableParams(1.5, 0.0), 20_000, 4501,
                                  threshold=0.02),
        "remark": verify_remark(1.5, 1.0, 300, 256, 4502, threshold=0.12),
        "fclt": verify_fclt(Exponential(1.0), 2000, 256, [0.5, 1.0], 400, 4503,
                            threshold=0.09),
        "product": verify_product(Pareto(1.5), 2000, 400, 4504,
                                  threshold=0.09),
        "lemma": verify_lemma(Exponential(1.0), [50, 500], 50, 4505),
    }


def test_campaigns_pass_at_calibrated_scale(small_campaigns):
    for name, rep in small_campaigns.items():
        assert rep.passed, (name, rep.statistic, rep.threshold)
        assert rep.campaign_passed, name


def test_campaign_controls_reject(small_campaigns):
    for name, rep in small_campaigns.items():
        ctl = rep.negative_control
        assert ctl["passed"] is False, (name, ctl)
        assert ctl["statistic"] > ctl["threshold"], (name, ctl)


def test_remark_limit_dispersion(small_campaigns):
    law = small_campaigns["remark"].details["limit_law"]
    assert law["dispersion"] == pytest.approx(math.gamma(2.5), rel=1e-12)
    assert law["beta"] == 1.0


def test_fclt_reports_each_time(small_campaigns):
    rep = small_campaigns["fclt"]
    assert sorted(rep.details["per_time"]) == ["0.5", "1.0"]
    assert rep.details["worst_time"] in (0.5, 1.0)
    worst = rep.details["per_time"][repr(rep.details["worst_time"])]
    assert rep.statistic == worst["statistic"]


def test_fclt_honest_failure_at_tiny_n():
    rep = verify_fclt(Exponential(1.0), 10, 8, [0.5, 1.0], 60, 4407, threshold=0.04)
    assert not rep.passed
    assert not rep.campaign_passed


def test_lemma_degenerate_sums_pass_trivially():
    # 0.1 is not dyadic: ten draws of it sum to 0.9999999999999999, not 10 * 0.1
    for value in (2.0, 0.1):
        rep = verify_lemma(Degenerate(value), [10, 100], 5, 1)
        assert rep.passed
        assert rep.details["ratios"] == [0.0, 0.0]


class _ConstantThenNoise(DoaSpec):
    # 1.0 for the first 10 draws, so the centered sums are 0 up to k = 10
    # and the ratio at n = 10 is 0 while the ratio at n = 100 is not
    known_mu = 1.0
    known_alpha = 2.0
    known_beta = 0.0
    positivity = True
    scale = 1.0

    def draw(self, rng, n):
        x = np.ones(n)
        x[10:] = rng.standard_exponential(n - 10)
        return x


def test_lemma_some_zero_ratios_fail_finitely():
    rep = verify_lemma(_ConstantThenNoise(), [10, 100], 3, 1)
    assert rep.statistic == 1e300
    assert not rep.passed
    assert rep.details["ratios"][0] == 0.0
    assert rep.details["ratios"][1] == pytest.approx(0.654, abs=1e-3)
    # strict JSON: no Infinity or NaN anywhere in the report
    parsed = json.loads(rep.to_json(), parse_constant=lambda c: pytest.fail(c))
    assert parsed["statistic"] == 1e300


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_refuses_a_non_finite_float(value):
    with pytest.raises(ValueError, match="JSON"):
        _json({"details": {"ratio_stderr": [1.0, np.float64(value)]}})


# Warnings are errors under this suite, so each refusal below also shows
# that nothing warned on the way to it.
def test_lemma_refuses_deviation_moments_that_overflow(tmp_path):
    # |S_k - k*mu|/k summed is near 1e307: each is finite, their mean over
    # the replicates overflows
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="^the mean or standard error of the deviation "
                                         "sums overflows$"):
        verify_lemma(Exponential(1e-307), [2, 10], 50, 1, out_dir=str(out_dir))
    assert not out_dir.exists()


def test_lemma_scales_a_standard_error_whose_squares_overflow():
    # every value is 2**995 times that of the unit exponential: the ratios
    # and their standard errors keep their bits, though the squares overflow
    unit = verify_lemma(Exponential(1.0), [2, 10, 100], 50, 3).details
    huge = verify_lemma(Exponential(2.0**-995), [2, 10, 100], 50, 3).details
    for key in ("ratios", "ratio_stderr", "control_ratios"):
        assert np.asarray(huge[key]).tobytes() == np.asarray(unit[key]).tobytes()
    # sums near 1e160, refused for their square before
    assert np.isfinite(verify_lemma(Exponential(1e-160), [2, 10], 50, 1)
                       .details["ratio_stderr"]).all()


@pytest.mark.parametrize("campaign, name", [
    (lambda: verify_lemma(Exponential(7e-308), [2, 10], 50, 1), "deviation sums"),
    (lambda: verify_fclt(Exponential(1e-307), 100, 4, [1.0], 20, 1), "partial sums"),
], ids=["lemma", "fclt"])
@pytest.mark.filterwarnings("error")
def test_partial_sums_that_overflow_are_refused_without_a_warning(campaign, name):
    # a warning before the refusal would surface instead, as an error
    with pytest.raises(ValueError, match=f"^{name} must be finite: .* overflows$"):
        campaign()


def test_product_refuses_a_b_n_that_overflows_before_drawing(monkeypatch):
    # 4000 * mu = 4e308: every k*mu of the kernel is checked by b_n at k = n
    import stablesums.verification as verification
    monkeypatch.setattr(verification, "sample_doa", lambda *args: pytest.fail("drew"))
    with pytest.raises(ValueError, match="^b_n overflows at n=4000$"):
        verify_product(Exponential(1e-305), 4000, 4, 1)


@pytest.mark.parametrize("spec", [Degenerate(np.float64(2.0)),
                                  TwoSidedPareto(np.float64(1.5), np.float64(1.0))],
                         ids=["degenerate", "two-sided-pareto"])
def test_reports_of_numpy_parameters_round_trip(spec):
    # positivity compares numpy floats, which gives a numpy bool
    rep = verify_lemma(spec, [10, 100], 5, 1)
    parsed = json.loads(rep.to_json())
    assert parsed["config"]["spec"]["positivity"] is True
    assert VerificationReport(**parsed).to_json() == rep.to_json()


def test_lemma_validates_horizons():
    with pytest.raises(ValueError):
        verify_lemma(Exponential(1.0), [100], 10, 1)
    with pytest.raises(ValueError):
        verify_lemma(Exponential(1.0), [100, 100], 10, 1)
    with pytest.raises(ValueError):
        verify_lemma(Exponential(1.0), [500, 100], 10, 1)
    with pytest.raises(ValueError):
        verify_lemma(Exponential(1.0), [2.9, 10.7], 5, 1)
    with pytest.raises(ValueError):
        verify_lemma(Exponential(1.0), ["3", "10"], 5, 1)


def test_lemma_validates_band_and_trend_tol():
    for kwargs in ({"band": 1.0}, {"band": 0.5}, {"trend_tol": 0.0},
                   {"trend_tol": -1.0}):
        with pytest.raises(ValueError):
            verify_lemma(Exponential(1.0), [10, 100], 5, 1, **kwargs)


@pytest.mark.parametrize("t, eps, message", [
    (0.0, 0.25, "t must be in (0, 1], got 0.0"),
    (0.5, 0.0, "need 0 < eps < t, got eps=0.0, t=0.5"),
    (0.5, 0.5, "need 0 < eps < t, got eps=0.5, t=0.5"),
    (0.5, math.nan, "eps must be in (-inf, inf), got nan"),
])
def test_riemann_window_is_refused_alike_by_integral_and_remark(t, eps, message):
    path = SamplePath(times=np.arange(17) / 16, values=np.zeros(17))
    with pytest.raises(ValueError) as direct:
        integral_riemann(path, t, eps)
    with pytest.raises(ValueError) as campaign:
        verify_remark(1.5, 0.0, 5, 16, 1, t=t, eps=eps)
    assert str(direct.value) == str(campaign.value) == message


def test_remark_checks_eps_before_simulating(monkeypatch):
    import stablesums.verification as verification

    def no_draws(*args, **kwargs):
        pytest.fail("drew path increments before checking eps")
    monkeypatch.setattr(verification, "sample", no_draws)
    with pytest.raises(ValueError, match="eps"):
        verify_remark(1.5, 0.0, 5, 16, 1, t=0.5, eps=0.6)
    with pytest.raises(ValueError, match="eps"):
        verify_remark(1.5, 0.0, 5, 1, 1)  # default eps 1/grid = t


def test_product_requires_positive_support():
    with pytest.raises(ValueError):
        verify_product(TwoSidedPareto(1.5, 0.0), 100, 10, 1)


def test_fclt_requires_grid_aligned_times():
    with pytest.raises(ValueError):
        verify_fclt(Exponential(1.0), 100, 8, [0.3], 10, 1)
    with pytest.raises(ValueError):
        verify_fclt(Exponential(1.0), 100, 8, [0.0], 10, 1)


def test_fclt_reads_each_time_at_its_grid_time():
    # two times within 1e-9 of the same grid time 2/8 are one marginal, and a
    # time that close to a grid time is reported as that grid time
    spec = Exponential(1.0)
    with pytest.raises(ValueError, match="distinct"):
        verify_fclt(spec, 100, 8, [0.25, 0.25 - 1e-12], 50, 3)
    snapped = verify_fclt(spec, 100, 8, [0.25 - 1e-12, 1.0], 50, 3)
    assert snapped.config["times"] == [0.25, 1.0]
    assert snapped.to_json() == verify_fclt(spec, 100, 8, [0.25, 1.0], 50, 3).to_json()


def test_campaign_reports_are_deterministic():
    a = verify_remark(1.5, 1.0, 60, 64, 4508, threshold=0.5)
    b = verify_remark(1.5, 1.0, 60, 64, 4508, threshold=0.5)
    assert a.to_json() == b.to_json()


def test_campaign_artifacts(tmp_path):
    rep = verify_remark(1.5, 0.0, 40, 64, 4509, threshold=0.5,
                        out_dir=str(tmp_path))
    assert set(rep.artifacts) == {"statistics.csv", "draws.csv",
                                  "limit_laws.json"}
    for name in rep.artifacts:
        assert os.path.isfile(os.path.join(tmp_path, name))
    with open(os.path.join(tmp_path, "statistics.csv")) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert header == "rep,t,value"
    assert int(first[0]) == 0
    assert float(first[1]) == 1.0


def test_reports_hold_plain_json_types(small_campaigns):
    for rep in small_campaigns.values():
        parsed = json.loads(rep.to_json())
        assert isinstance(parsed["statistic"], float)
        assert isinstance(parsed["passed"], bool)


def _csv_column(path, name):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        col = header.index(name)
        return [float(line.split(",")[col]) for line in fh]


def test_fclt_reads_a_near_grid_time_at_its_grid_time(tmp_path):
    # 0.25 - 1e-12 passes the on-grid check, so it must be read at grid time
    # 2/8 like 0.25 itself, not from the cell before it.
    spec = Exponential(1.0)
    on, near = tmp_path / "on", tmp_path / "near"
    a = verify_fclt(spec, 100, 8, [0.25], 50, 3, threshold=1.0, out_dir=str(on))
    b = verify_fclt(spec, 100, 8, [0.25 - 1e-12], 50, 3, threshold=1.0, out_dir=str(near))
    assert _csv_column(on / "statistics.csv", "value") == \
        _csv_column(near / "statistics.csv", "value")
    assert b.statistic == pytest.approx(a.statistic, abs=1e-9)


# The replicated campaigns call the kernels behind the public statistics
# directly; each must give, bit for bit, what a loop over the public
# functions gives on the same streams.
REPS, N, GRID, SEED = 7, 300, 64, 4520
FAMILIES = {"exponential": Exponential(1.0), "pareto 1.5": Pareto(1.5)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fclt_replicates_match_functional_statistic(tmp_path, family):
    spec = FAMILIES[family]
    times = [1 / 64, 0.25, 0.5, 1.0]
    verify_fclt(spec, N, GRID, times, REPS, SEED, threshold=1.0, out_dir=str(tmp_path))
    a_n = float(spec.a(N))
    fn = qi_log(spec.known_mu)
    want = [functional_statistic(sample_doa(spec, stream(SEED, 0, r), N), fn,
                                 spec.known_mu, a_n, GRID).at(t)
            for r in range(REPS) for t in times]
    assert _csv_column(tmp_path / "statistics.csv", "value") == want


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_product_replicates_match_log_product_statistic(tmp_path, family):
    spec = FAMILIES[family]
    rep = verify_product(spec, N, REPS, SEED, threshold=1.0, out_dir=str(tmp_path))
    mu = spec.known_mu
    exponent = mu / float(spec.a(N))
    assert rep.config["exponent"] == exponent
    want = [log_product_statistic(sample_doa(spec, stream(SEED, 0, r), N), mu, exponent)
            for r in range(REPS)]
    assert _csv_column(tmp_path / "statistics.csv", "value") == want


@pytest.mark.parametrize("law", [(1.5, 1.0), (2.0, 0.0), (1.2, -0.5)], ids=str)
@pytest.mark.parametrize("t, eps", [(1.0, None), (0.5, 0.1), (0.75, 1 / 64)])
def test_remark_replicates_match_integral_of_simulated_path(tmp_path, law, t, eps):
    verify_remark(*law, REPS, GRID, SEED, t=t, eps=eps, threshold=1.0, out_dir=str(tmp_path))
    want = [integral_riemann(simulate_levy_path(*law, stream(SEED, 0, r), GRID), t, eps)
            for r in range(REPS)]
    assert _csv_column(tmp_path / "statistics.csv", "value") == want


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lemma_ratios_match_the_formula(family):
    spec = FAMILIES[family]
    ns = [10, 100, N]
    rep = verify_lemma(spec, ns, REPS, SEED)
    k = np.arange(1, N + 1)
    q = np.empty((REPS, len(ns)))
    for r in range(REPS):
        x = sample_doa(spec, stream(SEED, 0, r), N)
        deviations = np.abs(np.cumsum(x - spec.known_mu))
        q[r] = np.cumsum(deviations / k)[np.array(ns) - 1]
    a_vals = spec.a(np.array(ns))
    assert rep.details["ratios"] == (q.mean(axis=0) / a_vals).tolist()
    assert rep.details["ratio_stderr"] == \
        (q.std(axis=0, ddof=1) / math.sqrt(REPS) / a_vals).tolist()


def test_fclt_refuses_a_spec_without_positivity_before_drawing(tmp_path, monkeypatch):
    # draws from -0.5 up, so partial-sum averages can leave the log's domain;
    # naming the offending k is test_functional_statistic_domain_error_names_index
    import stablesums.verification as verification
    calls = []
    monkeypatch.setattr(verification, "sample_doa", lambda *args: calls.append(args))
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="positivity"):
        verify_fclt(Pareto(1.5, shift=-1.5), N, GRID, [0.5, 1.0], REPS, SEED,
                    out_dir=str(out_dir))
    assert calls == []
    assert not out_dir.exists()


def _small_campaigns(out_dir):
    spec = Exponential(1.0)
    return {
        "fclt": lambda: verify_fclt(spec, N, GRID, [0.5, 1.0], REPS, SEED, out_dir=out_dir),
        "product": lambda: verify_product(spec, N, REPS, SEED, out_dir=out_dir),
        "remark": lambda: verify_remark(1.5, 1.0, REPS, GRID, SEED, out_dir=out_dir),
        "lemma": lambda: verify_lemma(spec, [10, N], REPS, SEED, out_dir=out_dir),
    }


@pytest.mark.parametrize("campaign", ["fclt", "product", "remark", "lemma"])
def test_campaigns_refuse_non_finite_draws(tmp_path, monkeypatch, campaign):
    import stablesums.verification as verification

    def poisoned(draw):
        def wrapper(*args, **kwargs):
            out = draw(*args, **kwargs)
            out[out.size // 2] = math.inf
            return out
        return wrapper
    monkeypatch.setattr(verification, "sample_doa", poisoned(verification.sample_doa))
    monkeypatch.setattr(verification, "sample", poisoned(verification.sample))
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="finite"):
        _small_campaigns(str(out_dir))[campaign]()
    assert not out_dir.exists()


@pytest.mark.parametrize("campaign", ["fclt", "product", "remark", "lemma"])
def test_campaigns_draw_once_per_replicate(monkeypatch, campaign):
    # The benchmark counts variates at these two bindings, one call per replicate.
    import stablesums.verification as verification
    calls = {"sample_doa": [], "sample": []}

    def counting(name, draw):
        def wrapper(*args, **kwargs):
            out = draw(*args, **kwargs)
            calls[name].append(out.size)
            return out
        return wrapper
    for name in calls:
        monkeypatch.setattr(verification, name, counting(name, getattr(verification, name)))
    _small_campaigns(None)[campaign]()
    if campaign == "remark":
        # then one draw of REPS each for the null and the control
        assert calls == {"sample_doa": [], "sample": [GRID] * REPS + [REPS, REPS]}
    else:
        assert calls == {"sample_doa": [N] * REPS, "sample": []}


def test_ks_one_sample_calls_cdf_once_with_every_sorted_sample():
    law = StableParams(1.5, 1.0)
    column = sample(law, stream(4532, 0), 100)
    calls = []

    def recording(x):
        calls.append(x.copy())
        return cdf(law, x)
    ks_one_sample(column, recording)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.sort(column))


# The marginal campaigns evaluate the CDF only at every 16th order statistic,
# the last one, and the runs between them where the KS supremum can still
# fall; each fit must be, bit for bit, ks_one_sample's from every point.
def _fits_by_ks_one_sample(column, law):
    stat, p = ks_one_sample(column, partial(cdf, law))
    control, _ = ks_one_sample(column, partial(cdf, _half_dispersion(law)))
    return stat, p, control


@pytest.mark.parametrize("alpha, beta", [(2.0, 0.0), (1.5, 1.0), (1.5, -0.4), (1.2, 0.5),
                                         (1.0, 0.0), (1.0, 0.8), (0.7, 1.0), (0.7, -0.3)])
def test_bracketed_sup_equals_ks_one_sample(alpha, beta):
    law = StableParams(alpha, beta)
    for n in (2, 3, 15, 16, 17, 33, 500):
        column = sample(law, stream(4530, n), n)
        # the true law, a shifted law, and (as each fit's control) both at
        # half dispersion
        for null in (law, replace(law, location=0.25)):
            [fit] = _marginal_fits(column[:, None], [null])
            assert fit == _fits_by_ks_one_sample(column, null), (n, null)


@pytest.mark.parametrize("where", ["ties", 0, -1])
def test_bracketed_sup_at_ties_and_at_either_end(where):
    law = StableParams(1.5, 1.0)
    if where == "ties":
        column = np.full(40, 0.3)   # the sup is at the first or the last point
    else:
        # shifted far into the upper tail, the sup falls on the first order
        # statistic; far into the lower tail, on the last
        column = sample(law, stream(4531, 0), 200) + (60.0 if where == 0 else -60.0)
        xs = np.sort(column)
        upper = np.arange(1, xs.size + 1) / xs.size
        f = cdf(law, xs)
        gaps = np.maximum(upper - f, f - (upper - 1.0 / xs.size))
        assert int(np.argmax(gaps)) == np.arange(xs.size)[where]
    [fit] = _marginal_fits(column[:, None], [law])
    assert fit == _fits_by_ks_one_sample(column, law)


def test_product_column_reaches_cdf_at_a_quarter_of_its_points(tmp_path, monkeypatch):
    # The benchmark's verify-product at workload seed 0; its tracer wraps the
    # cdf binding of the verification module, so every point must go through it.
    import stablesums.verification as verification
    evaluated = []

    def counting(law, x):
        evaluated.append((law, x.size))
        return cdf(law, x)
    monkeypatch.setattr(verification, "cdf", counting)
    reps = 5000
    rep = verify_product(Pareto(1.5), 10**4, reps, 404, out_dir=str(tmp_path))
    law = StableParams(**rep.details["limit_law"])
    per_law = [[size for null, size in evaluated if null == want]
               for want in (law, _half_dispersion(law))]
    # per law: every 16th order statistic and the last, then at most one more call
    assert len(evaluated) == sum(map(len, per_law))
    assert [sizes[0] for sizes in per_law] == [314, 314]
    assert max(map(len, per_law)) <= 2
    assert sum(map(sum, per_law)) <= 0.25 * 2 * reps
    values = _csv_column(tmp_path / "statistics.csv", "value")
    assert (rep.statistic, rep.details["p_value"], rep.negative_control["statistic"]) == \
        _fits_by_ks_one_sample(values, law)
