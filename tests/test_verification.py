"""KS machinery, report serialization, and the verification campaigns."""

import json
import math
import os

import numpy as np
import pytest
from scipy.special import erf

from stablesums import (
    FunctionalConfig,
    StableParams,
    VerificationReport,
    char_fn,
    degenerate,
    ecdf,
    empirical_char_fn,
    exponential,
    ks_one_sample,
    ks_two_sample,
    pareto,
    qi_log,
    sample,
    two_sided_pareto,
    verify_fclt,
    verify_lemma,
    verify_product,
    verify_remark,
    verify_sampler,
)
from stablesums.rng import stream
from stablesums.verification import _common_step


def test_ecdf_hand_example():
    F = ecdf([1.0, 2.0, 2.0, 4.0])
    assert F(0.5) == 0.0
    assert F(1.0) == 0.25
    assert F(2.0) == 0.75
    assert F(3.0) == 0.75
    assert F(4.0) == 1.0
    np.testing.assert_array_equal(F(np.array([1.0, 3.0])), [0.25, 0.75])


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
    "library-default": np.arange(-50, 51) / 10.0,
    "cli-default": -5.0 + 0.1 * np.arange(101),
    "asymmetric": np.array([0.5, 1.5, 2.5, 3.5]),
}


@pytest.fixture(scope="module", params=CRITERION_1_LAWS, ids=str)
def criterion_1_draws(request):
    # 40_007 is not a multiple of the 2**14 chunk, so a partial chunk is summed
    return sample(StableParams(*request.param), stream(4410, 0), 40_007)


@pytest.mark.parametrize("name", sorted(ARITHMETIC_GRIDS))
def test_ecf_power_recurrence_matches_outer_product(criterion_1_draws, name):
    x, t = criterion_1_draws, ARITHMETIC_GRIDS[name]
    assert _common_step(t) is not None  # the recurrence path is the one tested
    direct = np.exp(1j * np.outer(t, x)).mean(axis=1)
    np.testing.assert_allclose(empirical_char_fn(x, t), direct,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [np.array([0.3, 1.7]), np.array([2.5]), 2.5],
                         ids=["two-point", "one-point", "scalar"])
def test_ecf_short_grids_match_outer_product(criterion_1_draws, t):
    x = criterion_1_draws
    direct = np.exp(1j * np.outer(t, x)).mean(axis=1)
    got = empirical_char_fn(x, t)
    assert np.ndim(got) == np.ndim(t)
    np.testing.assert_allclose(np.atleast_1d(got), direct, rtol=0, atol=1e-12)


def test_ecf_non_arithmetic_grid_is_exact_outer_product(criterion_1_draws):
    x, t = criterion_1_draws, np.array([0.3, 1.7, 4.0])
    assert _common_step(t) is None
    chunk = 2**14
    acc = np.zeros(t.size, dtype=complex)
    for start in range(0, x.size, chunk):
        acc += np.exp(1j * np.outer(t, x[start : start + chunk])).sum(axis=1)
    np.testing.assert_array_equal(empirical_char_fn(x, t), acc / x.size)


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
    t = np.arange(-50, 51) / 10.0
    direct = np.array([np.exp(1j * tk * x).mean() for tk in t])
    gaps = np.abs(direct - char_fn(params, t))
    tied = t[gaps >= gaps.max() * (1.0 - 1e-12)]
    assert rep.details["worst_t"] > 0
    assert set(np.abs(tied).tolist()) == {rep.details["worst_t"]}


def test_ks_one_sample_perfect_fit_p_value():
    u = (np.arange(10**4) + 0.5) / 10**4
    stat, p = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0))
    assert stat == pytest.approx(0.5e-4, abs=1e-15)
    assert p == 1.0


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
    cfg = FunctionalConfig(spec=exponential(1.0), fn=qi_log(1.0),
                           n=2000, grid=256)
    return {
        "sampler": verify_sampler(StableParams(1.5, 0.0), 20_000, 4501,
                                  threshold=0.02),
        "remark": verify_remark(1.5, 1.0, 300, 256, 4502, threshold=0.12),
        "fclt": verify_fclt(cfg, [0.5, 1.0], 400, 4503, threshold=0.09),
        "product": verify_product(pareto(1.5), 2000, 400, 4504,
                                  threshold=0.09),
        "lemma": verify_lemma(exponential(1.0), [50, 500], 50, 4505),
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
    cfg = FunctionalConfig(spec=exponential(1.0), fn=qi_log(1.0), n=10, grid=8)
    rep = verify_fclt(cfg, [0.5, 1.0], 60, 4407, threshold=0.04)
    assert not rep.passed
    assert not rep.campaign_passed


def test_lemma_degenerate_sums_pass_trivially():
    rep = verify_lemma(degenerate(2.0), [10, 100], 5, 1)
    assert rep.passed
    assert rep.details["ratios"] == [0.0, 0.0]


def test_lemma_validates_horizons():
    with pytest.raises(ValueError):
        verify_lemma(exponential(1.0), [100], 10, 1)
    with pytest.raises(ValueError):
        verify_lemma(exponential(1.0), [100, 100], 10, 1)
    with pytest.raises(ValueError):
        verify_lemma(exponential(1.0), [500, 100], 10, 1)


def test_lemma_validates_band_and_trend_tol():
    for kwargs in ({"band": 1.0}, {"band": 0.5}, {"trend_tol": 0.0},
                   {"trend_tol": -1.0}):
        with pytest.raises(ValueError):
            verify_lemma(exponential(1.0), [10, 100], 5, 1, **kwargs)


def test_remark_checks_eps_before_simulating(monkeypatch):
    import stablesums.verification as verification

    def no_paths(*args, **kwargs):
        pytest.fail("simulated a path before checking eps")
    monkeypatch.setattr(verification, "simulate_levy_path", no_paths)
    with pytest.raises(ValueError, match="eps"):
        verify_remark(1.5, 0.0, 5, 16, 1, t=0.5, eps=0.6)
    with pytest.raises(ValueError, match="eps"):
        verify_remark(1.5, 0.0, 5, 1, 1)  # default eps 1/grid = t


def test_product_requires_positive_support():
    with pytest.raises(ValueError):
        verify_product(two_sided_pareto(1.5, 0.0), 100, 10, 1)


def test_fclt_requires_grid_aligned_times():
    cfg = FunctionalConfig(spec=exponential(1.0), fn=qi_log(1.0),
                           n=100, grid=8)
    with pytest.raises(ValueError):
        verify_fclt(cfg, [0.3], 10, 1)
    with pytest.raises(ValueError):
        verify_fclt(cfg, [0.0], 10, 1)


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
