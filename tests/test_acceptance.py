"""Acceptance gate: every shipped claim at full scale, one line per criterion.

Each criterion prints ``[PASS]``/``[FAIL] criterion N: ...`` (visible under
``pytest -s``) and then asserts.  Campaign runs are shared module-wide so the
negative-control and determinism criteria reuse the same simulations instead
of paying for fresh ones.  All seeds are frozen; every number here is
reproducible bit for bit.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy import integrate

from stablesums import (
    ExactStable,
    Exponential,
    Pareto,
    SamplePath,
    StableParams,
    cdf,
    char_fn,
    ecdf,
    empirical_char_fn,
    functional_statistic,
    integral_riemann,
    karamata_partial_sum,
    ks_two_sample,
    limit_constant,
    limit_law,
    log_product_statistic,
    mean_abs_deviation,
    norming_sequence,
    partial_sum_process,
    product_statistic,
    qi_log,
    sample,
    sample_doa,
    scale_shift,
    tail_dispersion,
    verify_fclt,
    verify_lemma,
    verify_product,
    verify_remark,
    verify_sampler,
)
from stablesums.cli import emit_plotdata, main as cli_main
from stablesums.rng import stream

SAMPLER_CASES = ((2.0, 0.0), (1.5, 0.0), (1.5, 1.0), (1.2, 0.5))


def _gate(num, desc, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc} {detail}"


@pytest.fixture(scope="module")
def sampler_reports():
    return {
        (a, b): verify_sampler(StableParams(a, b), 10**6, 101, threshold=5e-3)
        for a, b in SAMPLER_CASES
    }


@pytest.fixture(scope="module")
def remark_reports():
    return {
        (2.0, 0.0): verify_remark(2.0, 0.0, 5000, 2**12, 202, threshold=0.04),
        (1.5, 1.0): verify_remark(1.5, 1.0, 5000, 2**12, 202, threshold=0.04),
    }


@pytest.fixture(scope="module")
def fclt_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("fclt")
    rep = verify_fclt(Exponential(1.0), 10**4, 2**12, [0.25, 0.5, 0.75, 1.0], 5000, 41,
                      threshold=0.04, out_dir=str(out))
    (out / "report.json").write_text(rep.to_json())
    return rep, str(out)


@pytest.fixture(scope="module")
def product_report():
    return verify_product(Pareto(1.5), 10**4, 5000, 404, threshold=0.07)


@pytest.fixture(scope="module")
def lemma_reports():
    return {
        "exponential": verify_lemma(Exponential(1.0), [100, 1000, 10000],
                                    400, 606),
        "pareto": verify_lemma(Pareto(1.5), [100, 1000, 10000], 400, 606),
    }


def test_criterion_1_sampler_char_fn_fidelity(sampler_reports):
    stats = {k: r.statistic for k, r in sampler_reports.items()}
    ok = all(r.passed for r in sampler_reports.values())
    _gate(1, "empirical char fn within 5e-3 of analytic on [-5,5] for "
             "four (alpha, beta) cases at n=1e6", ok, str(stats))


def test_criterion_2_cdf_inversion_accuracy():
    xs = np.arange(-1000, 1001) / 100.0  # [-10, 10] step 0.01
    gauss = StableParams(2.0, 0.0)
    cauchy = StableParams(1.0, 0.0)
    g_err = max(abs(cdf(gauss, float(x))
                    - 0.5 * (1 + math.erf(x / math.sqrt(2)))) for x in xs)
    c_err = max(abs(cdf(cauchy, float(x))
                    - (0.5 + math.atan(x) / math.pi)) for x in xs)
    ok = g_err < 1e-6 and c_err < 1e-6
    _gate(2, "numeric CDF within 1e-6 of Gaussian and Cauchy closed forms "
             "on [-10,10]", ok, f"gauss {g_err:.2e} cauchy {c_err:.2e}")


def test_criterion_3_truncated_integral_limit_law(remark_reports):
    stats = {k: round(r.statistic, 4) for k, r in remark_reports.items()}
    ok = all(r.passed for r in remark_reports.values())
    _gate(3, "truncated path integral matches its stable law, two-sample "
             "KS < 0.04 at 5000 reps", ok, str(stats))


def test_criterion_4_log_functional_marginals(fclt_report):
    rep, _ = fclt_report
    per_time = {t: v["statistic"] for t, v in rep.details["per_time"].items()}
    ok = rep.passed and all(v < 0.04 for v in per_time.values())
    _gate(4, "log-functional marginals of exponential sums match N(0, 2t) "
             "at t in {1/4,1/2,3/4,1}, KS < 0.04", ok, str(per_time))


def test_criterion_5_heavy_tail_product_law(product_report):
    ok = product_report.passed
    _gate(5, "log product statistic for Pareto(1.5) matches the fully "
             "skewed stable law, KS < 0.07",
          ok, f"stat {product_report.statistic:.4f}")


def test_criterion_6_deviation_ratio_band(lemma_reports):
    detail = {}
    ok = True
    for name, rep in lemma_reports.items():
        detail[name] = [round(v, 3) for v in rep.details["ratios"]]
        ok = ok and rep.passed
        # Monte Carlo error bars must accompany the point estimates
        ok = ok and len(rep.details["ratio_stderr"]) == 3
        ok = ok and len(rep.details["ci95_low"]) == 3
        ok = ok and len(rep.details["ci95_high"]) == 3
    _gate(6, "normalized deviation sums stay within a factor 2 band over "
             "n in {1e2,1e3,1e4} with Monte Carlo CIs", ok, str(detail))


def test_criterion_7_exact_identities():
    checks = []

    checks.append(limit_constant(2.0) == math.sqrt(2.0))
    for alpha in (1.1, 1.5, 2.0):
        q, _ = integrate.quad(lambda u, a=alpha: (-math.log(u)) ** a, 0, 1)
        checks.append(abs(q - math.gamma(alpha + 1)) < 1e-8)

    # log-space bridge between the product and the path functional
    x = sample_doa(Exponential(1.0), stream(4301, 0), 400)
    lhs = log_product_statistic(x, 1.0, 1.0 / 20.0)
    rhs = functional_statistic(x, qi_log(1.0), 1.0, 20.0, grid=400).at(1.0)
    checks.append(abs(lhs - rhs) < 1e-12)

    # characteristic function hand values and invariances
    checks.append(char_fn(StableParams(1.5, 1.0), 0.0) == 1.0 + 0.0j)
    checks.append(abs(char_fn(StableParams(1.5, 1.0), 1.0)
                      - np.exp(-1 - 1j)) < 1e-15)
    p = StableParams(2.0, 0.0, 1.0, 0.0)
    checks.append(scale_shift(p, 1.0, 0.0) == p)
    checks.append(scale_shift(p, 3.0, 1.0) == StableParams(2.0, 0.0, 9.0, 1.0))
    checks.append(abs(limit_constant(1.0 + 1e-9) - 1.0) < 1e-6)

    checks.append(cdf(StableParams(2.0, 0.0), 0.0) == pytest.approx(0.5, abs=1e-10))
    checks.append(cdf(StableParams(1.0, 0.0), 1.0) == pytest.approx(0.75, abs=1e-10))

    # sampling moments at Monte Carlo precision
    g = sample(StableParams(2.0, 0.0, 1.0, 5.0), stream(7001, 0), 10**6)
    checks.append(abs(g.mean() - 5.0) < 5e-3)
    e = sample_doa(Exponential(1.0), stream(7002, 0), 10**6)
    checks.append(abs(e.mean() - 1.0) < 3e-3)
    v = sample_doa(ExactStable(StableParams(2.0, 0.0, 1.0, 2.0)),
                   stream(7003, 0), 10**6)
    checks.append(abs(v.var() - 1.0) < 5e-3)
    s = sample(StableParams(1.5, 0.0), stream(7004, 0), 10**6)
    checks.append(abs(empirical_char_fn(s, 1.0) - math.exp(-1)) < 5e-3)

    # degenerate and constant-sequence contracts
    path = partial_sum_process(np.full(6, 2.5), 2.5, 3.0, grid=4)
    checks.append(not np.any(path.values))
    checks.append(product_statistic(np.full(20, 1.5), 1.5, 0.3) == 1.0)
    checks.append(mean_abs_deviation(
        ExactStable(StableParams(2.0, 0.0, 1.0, 0.0)), 1, 2, 1).estimate >= 0)
    checks.append(karamata_partial_sum(lambda k: k, 1000) == 1000.0)
    checks.append(tail_dispersion(1.5, 1.0, 0.0) == math.sqrt(2 * math.pi))
    checks.append(norming_sequence(Exponential(1.0), 100) == (10.0, 100.0))
    a8, _ = norming_sequence(ExactStable(StableParams(1.5, 1.0, 1.0)), 8)
    checks.append(abs(a8 - 4.0) < 1e-12)

    m = 16
    zero = SamplePath(times=np.arange(m + 1) / m, values=np.zeros(m + 1))
    checks.append(integral_riemann(zero, 1.0) == 0.0)
    with pytest.raises(ValueError):
        limit_law(1.5, 0.0, 1.0, 0.0)
    checks.append(True)

    F = ecdf([1.0, 2.0])
    checks.append(F(1.5) == 0.5)
    stat, _ = ks_two_sample([1.0, 2.0, 3.0], [1.5, 2.5, 3.5])
    checks.append(abs(stat - 1 / 3) < 1e-15)

    bad = [i for i, c in enumerate(checks) if not c]
    _gate(7, "exact identities and degenerate contracts hold at machine "
             "precision", not bad, f"failed checks {bad}")


def test_criterion_8_negative_controls(sampler_reports, remark_reports,
                                       fclt_report, product_report,
                                       lemma_reports):
    reports = {}
    reports.update({f"sampler{k}": r for k, r in sampler_reports.items()})
    reports.update({f"remark{k}": r for k, r in remark_reports.items()})
    reports["fclt"] = fclt_report[0]
    reports["product"] = product_report
    reports.update({f"lemma-{k}": r for k, r in lemma_reports.items()})
    rejected = {k: not r.negative_control["passed"] for k, r in reports.items()}
    ok = all(rejected.values()) and all(r.campaign_passed for r in reports.values())
    _gate(8, "every campaign's deliberately wrong null is rejected",
          ok, str({k: v for k, v in rejected.items() if not v}))


def test_criterion_9_deterministic_reports(remark_reports, lemma_reports,
                                           tmp_path):
    again = verify_remark(2.0, 0.0, 5000, 2**12, 202, threshold=0.04)
    ok = again.to_json() == remark_reports[(2.0, 0.0)].to_json()
    lemma_again = verify_lemma(Exponential(1.0), [100, 1000, 10000], 400, 606)
    ok = ok and lemma_again.to_json() == lemma_reports["exponential"].to_json()
    # CLI end to end: same command, same seed, byte-identical file
    args = ["verify-lemma", "--family", "exponential", "--ns", "100,1000",
            "--reps", "50", "--seed", "9", "--out-dir", str(tmp_path)]
    ok = ok and cli_main(list(args)) in (0, 1)
    first = (tmp_path / "report.json").read_bytes()
    ok = ok and cli_main(list(args)) in (0, 1)
    ok = ok and (tmp_path / "report.json").read_bytes() == first
    _gate(9, "rerunning campaigns with their seeds reproduces reports byte "
             "for byte", ok)


def test_fclt_overlays_one_per_time(fclt_report):
    # four tested marginals turn into exactly four overlay files
    _, out = fclt_report
    files = emit_plotdata(os.path.join(out, "report.json"))
    assert len(files) == 4
    assert sorted(os.path.basename(f) for f in files) == [
        "overlay_t0.25.csv", "overlay_t0.5.csv",
        "overlay_t0.75.csv", "overlay_t1.0.csv"]


def test_cli_quickstart_invocation(tmp_path):
    # the README's first verification command, at full scale
    code = cli_main(["verify-remark", "--alpha", "2", "--beta", "0",
                     "--reps", "5000", "--grid", "4096", "--seed", "42",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["negative_control"]["passed"] is False
