"""Exit codes, config resolution, and artifacts of the command line."""

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import stablesums
from stablesums import (Degenerate, Exponential, Pareto, StableParams, TwoSidedPareto,
                        stable, verify_sampler)
from stablesums.cli import (_OPTIONS, CampaignConfig, _resolve, build_parser, emit_plotdata,
                            main, run)
from stablesums.paths import simulate_levy_path
from stablesums.rng import stream
from stablesums.verification import _write_csv


def _run(*args):
    return main(list(args))


def test_sample_rejects_zero_n(tmp_path):
    out = tmp_path / "out"
    code = _run("sample", "--alpha", "1.5", "--beta", "1", "--n", "0",
                "--out-dir", str(out))
    assert code == 2
    assert not out.exists()  # config errors never touch the filesystem


def test_sample_refuses_an_alpha_below_the_floor(tmp_path, capsys):
    out = tmp_path / "out"
    code = _run("sample", "--alpha", "1e-300", "--beta", "1", "--n", "5", "--seed", "3",
                "--out-dir", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: sample: alpha must be in [0.05, 2], got 1e-300\n")
    assert not out.exists()


def test_sample_writes_artifacts(tmp_path):
    code = _run("sample", "--alpha", "1.5", "--beta", "1", "--n", "50",
                "--seed", "3", "--out-dir", str(tmp_path))
    assert code == 0
    with open(tmp_path / "samples.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 51
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["test_name"] == "sample"
    assert report["config"]["invocation"]["seed"] == 3


def test_sample_default_seed_is_zero(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("sample", "--alpha", "2", "--beta", "0", "--n", "20",
                "--out-dir", str(a)) == 0
    assert _run("sample", "--alpha", "2", "--beta", "0", "--n", "20",
                "--seed", "0", "--out-dir", str(b)) == 0
    assert (a / "samples.csv").read_text() == (b / "samples.csv").read_text()


def test_verify_requires_seed(tmp_path, capsys):
    code = _run("verify-remark", "--alpha", "1.5", "--beta", "0",
                "--reps", "10", "--grid", "16", "--out-dir", str(tmp_path / "o"))
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_remark_exit_codes(tmp_path):
    # threshold 0.22 sits between this run's statistic (0.18) and its
    # half-dispersion control (0.27), so the campaign passes cleanly
    ok = tmp_path / "ok"
    code = _run("verify-remark", "--alpha", "1.5", "--beta", "0",
                "--reps", "60", "--grid", "64", "--seed", "4508",
                "--threshold", "0.22", "--out-dir", str(ok))
    assert code == 0
    # an unreachable threshold flips the exit code but still writes the report
    bad = tmp_path / "bad"
    code = _run("verify-remark", "--alpha", "1.5", "--beta", "0",
                "--reps", "60", "--grid", "64", "--seed", "4508",
                "--threshold", "1e-9", "--out-dir", str(bad))
    assert code == 1
    report = json.loads((bad / "report.json").read_text())
    assert report["passed"] is False


def test_report_bytes_stable_across_reruns(tmp_path):
    args = ("verify-remark", "--alpha", "2", "--beta", "0", "--reps", "100",
            "--grid", "64", "--seed", "12", "--threshold", "0.16",
            "--out-dir", str(tmp_path))
    assert _run(*args) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert _run(*args) == 0
    assert (tmp_path / "report.json").read_bytes() == first


def test_run_refuses_an_unknown_campaign(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="^unknown campaign 'bogus'$"):
        run(CampaignConfig("bogus", 1, str(out)))
    assert not out.exists()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alpha = 2\nbeta = 0\nn = 40\nseed = 77\n")
    a = tmp_path / "a"
    assert _run("sample", "--config", str(cfg), "--out-dir", str(a)) == 0
    ra = json.loads((a / "report.json").read_text())
    assert ra["seed"] == 77 and ra["n"] == 40
    b = tmp_path / "b"
    assert _run("sample", "--config", str(cfg), "--n", "60",
                "--out-dir", str(b)) == 0
    rb = json.loads((b / "report.json").read_text())
    assert rb["n"] == 60  # explicit flag wins over the file
    assert len((b / "samples.csv").read_text().splitlines()) == 61


def test_config_file_json_form(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "beta": 0.0, "reps": 30,
                               "grid": 32, "threshold": 0.3}))
    out = tmp_path / "o"
    assert _run("verify-remark", "--config", str(cfg), "--seed", "5",
                "--out-dir", str(out)) == 0


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # a config file may set only the options of its own subcommand:
    # tail_index belongs to verify-fclt, report to plotdata, threads to none
    for key in ("bogus", "tail_index", "report", "threads"):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"alpha = 1.5\nbeta = 0\n{key} = 1\n")
        out = tmp_path / "o"
        assert _run("verify-remark", "--config", str(cfg), "--seed", "1",
                    "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: verify-remark: unknown config key {key!r}\n"
        assert not out.exists()


def test_config_file_of_another_subcommand_is_refused(tmp_path, capsys):
    cfg = tmp_path / "remark.json"
    cfg.write_text(json.dumps({"campaign": "verify-remark", "alpha": 2, "beta": 0,
                               "reps": 2, "grid": 4, "seed": 5}))
    out = tmp_path / "o"
    assert _run("paths", "--config", str(cfg), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == ("error: paths: config key 'campaign': the file "
                                       "is for verify-remark, not paths\n")
    assert not out.exists()
    # a campaign key that names the subcommand itself is skipped
    cfg.write_text(json.dumps({"campaign": "paths", "alpha": 2, "beta": 0, "grid": 4}))
    assert _run("paths", "--config", str(cfg), "--out-dir", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["invocation"]["params"]["grid"] == 4


@pytest.mark.parametrize("key, name, text", [
    ("n", "c.json", '{"n": 2.9}'),
    ("seed", "c.json", '{"seed": 1.9}'),
    ("alpha", "c.json", '{"alpha": true}'),
    ("n", "c.json", '{"n": null}'),
    ("n", "c.cfg", "n = 2.9\n"),
])
def test_config_values_parse_like_flags(tmp_path, capsys, key, name, text):
    # a file value is parsed from its text by the flag's own type, so it is
    # refused exactly when the flag would be (--n 2.9, --alpha True)
    cfg = tmp_path / name
    cfg.write_text(text)
    flags = {"alpha": "2", "beta": "0", "n": "5"}
    flags.pop(key, None)
    out = tmp_path / "o"
    args = [arg for k, v in flags.items() for arg in (f"--{k}", v)]
    assert _run("sample", *args, "--config", str(cfg), "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sample: config key {key!r}: ")
    assert err.count("\n") == 1
    assert not out.exists()


_MANDATORY = {
    "sample": ["--alpha", "1.5", "--beta", "0", "--n", "7"],
    "paths": ["--alpha", "1.5", "--beta", "0"],
    "verify-sampler": ["--alpha", "1.5", "--beta", "0", "--seed", "1"],
    "verify-remark": ["--alpha", "1.5", "--beta", "0", "--seed", "1"],
    "verify-fclt": ["--seed", "1"],
    "verify-lemma": ["--seed", "1"],
    "verify-product": ["--tail-index", "1.5", "--seed", "1"],
}
# the defaults of the options each default family reads; no other family's
_FAMILY_DEFAULTS = {"exponential": {"rate": 1.0}, "pareto": {"x_min": 1.0, "shift": 0.0}}
_PINNED_PARAMS = {
    "sample": {"dispersion": 1.0, "location": 0.0,
               "alpha": 1.5, "beta": 0.0, "n": 7},
    "paths": {"grid": 4096, "reps": 1, "alpha": 1.5, "beta": 0.0},
    "verify-sampler": {"dispersion": 1.0, "location": 0.0, "n": 1000000,
                       "t_min": -5.0, "t_max": 5.0, "t_step": 0.1,
                       "threshold": 0.005, "alpha": 1.5, "beta": 0.0},
    "verify-remark": {"reps": 5000, "grid": 4096, "t": 1.0, "threshold": 0.04,
                      "alpha": 1.5, "beta": 0.0},
    "verify-fclt": {**_FAMILY_DEFAULTS["exponential"], "family": "exponential", "n": 10000,
                    "grid": 4096, "times": "0.25,0.5,0.75,1.0", "reps": 5000,
                    "threshold": 0.04},
    "verify-lemma": {**_FAMILY_DEFAULTS["exponential"], "family": "exponential",
                     "ns": "100,1000,10000", "reps": 400, "band": 2.0,
                     "trend_tol": 0.25},
    "verify-product": {**_FAMILY_DEFAULTS["pareto"], "family": "pareto", "n": 10000,
                       "reps": 5000, "threshold": 0.07, "tail_index": 1.5},
}


@pytest.mark.parametrize("campaign", sorted(_MANDATORY))
def test_campaign_defaults_are_pinned(campaign):
    # invocation.params in report.json is exactly these, so a default that
    # moves or goes missing changes report bytes
    config = _resolve(build_parser().parse_args([campaign, *_MANDATORY[campaign]]))
    assert config.params == _PINNED_PARAMS[campaign]
    assert all(type(v) is type(_PINNED_PARAMS[campaign][k])
               for k, v in config.params.items())
    assert config.seed == (1 if campaign.startswith("verify-") else 0)
    assert config.out_dir == "."


_CAMPAIGN_FUNCTIONS = {"paths": "simulate_levy_path", "verify-sampler": "verify_sampler",
                       "verify-remark": "verify_remark", "verify-fclt": "verify_fclt",
                       "verify-lemma": "verify_lemma", "verify-product": "verify_product"}


def test_campaign_defaults_are_the_library_defaults():
    # an option named for a defaulted parameter of the function its subcommand
    # calls has that default, so a run from the command line and one from the
    # library agree; out_dir is excluded, as the command line writes into "."
    # where the library writes nothing
    checked = []
    for campaign, function in _CAMPAIGN_FUNCTIONS.items():
        options = _OPTIONS[campaign][1]
        for name, param in inspect.signature(getattr(stablesums, function)).parameters.items():
            if name in options and name != "out_dir" and param.default is not param.empty:
                assert options[name][1] == param.default, (campaign, name)
                checked.append((campaign, name))
    assert sorted(checked) == sorted(
        [("paths", "grid"), ("verify-remark", "t"), ("verify-remark", "eps"),
         ("verify-lemma", "band"), ("verify-lemma", "trend_tol")]
        + [(c, "threshold") for c in ("verify-sampler", "verify-remark",
                                      "verify-fclt", "verify-product")])


_FAMILY_CLASSES = {"exponential": Exponential, "pareto": Pareto,
                   "two-sided-pareto": TwoSidedPareto, "exact-stable": StableParams,
                   "degenerate": Degenerate}
_REQUIRED_FIELDS = {"tail_index": "1.5", "alpha": "1.5", "beta": "0.5", "value": "3.0"}


@pytest.mark.parametrize("family", sorted(_FAMILY_CLASSES))
def test_family_options_are_the_fields_of_its_class(family):
    # each family reads exactly the fields of its class, with their defaults
    fields = dataclasses.fields(_FAMILY_CLASSES[family])
    argv = ["verify-lemma", "--family", family, "--seed", "1"]
    want = {}
    for f in fields:
        if f.default is dataclasses.MISSING:
            argv += ["--" + f.name.replace("_", "-"), _REQUIRED_FIELDS[f.name]]
            want[f.name] = float(_REQUIRED_FIELDS[f.name])
        else:
            want[f.name] = f.default
    params = _resolve(build_parser().parse_args(argv)).params
    assert params == {**want, "family": family, "ns": "100,1000,10000", "reps": 400,
                      "band": 2.0, "trend_tol": 0.25}


def test_help_names_the_families_that_read_an_option(capsys):
    assert _run("verify-lemma", "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--tail-index TAIL_INDEX read by --family pareto, two-sided-pareto " in text
    assert "--alpha ALPHA read by --family exact-stable " in text
    assert _run("sample", "--help") == 0
    assert "read by" not in capsys.readouterr().out


# a negative value in scientific notation, one flag per subcommand that takes
# numbers: argparse alone reads "-1e-3" as a flag and exits 2
@pytest.mark.parametrize("argv, key, value", [
    (["sample", "--location", "-1e-3"], "location", -0.001),
    (["paths", "--beta", "-5e-1"], "beta", -0.5),
    (["verify-sampler", "--t-min", "-1e1"], "t_min", -10.0),
    (["verify-remark", "--beta", "-5E-1"], "beta", -0.5),
    (["verify-fclt", "--family", "pareto", "--shift", "-5e-1"], "shift", -0.5),
    (["verify-lemma", "--family", "two-sided-pareto", "--asymmetry", "-5e-1"],
     "asymmetry", -0.5),
    (["verify-product", "--shift", "-.5e+0"], "shift", -0.5),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_negative_values_in_scientific_notation(argv, key, value):
    assert _resolve(build_parser().parse_args(argv)).params[key] == value


def test_negative_location_in_scientific_notation_runs(tmp_path):
    assert _run("sample", "--alpha", "2", "--beta", "0", "--n", "3",
                "--location", "-1e-3", "--out-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["invocation"]["params"]["location"] == -0.001
    laws = json.loads((tmp_path / "limit_laws.json").read_text())
    assert laws["sampled"]["location"] == -0.001


_REMARK = ("verify-remark", "--alpha", "1.5", "--beta", "0", "--grid", "16")
_FCLT = ("verify-fclt", "--n", "100", "--grid", "8", "--times", "1")
_LEMMA = ("verify-lemma", "--ns", "10,100")
_PRODUCT = ("verify-product", "--tail-index", "1.5", "--n", "100")


@pytest.mark.parametrize("args", [
    ("sample", "--alpha", "2.5", "--beta", "0", "--n", "5"),
    ("sample", "--alpha", "2", "--beta", "0", "--n", "0"),
    ("paths", "--alpha", "1", "--beta", "0", "--grid", "8"),
    ("paths", "--alpha", "1.5", "--beta", "0", "--reps", "0"),
    ("verify-sampler", "--alpha", "2", "--beta", "0", "--n", "0", "--seed", "1"),
    ("verify-fclt", "--times", "0.3", "--grid", "8", "--seed", "1"),
    ("verify-fclt", "--family", "two-sided-pareto", "--tail-index", "1.5",
     "--seed", "1"),
    ("verify-product", "--family", "two-sided-pareto", "--tail-index", "1.5",
     "--seed", "1"),
    # the CLI once accepted these and the library then refused them
    _REMARK + ("--reps", "1", "--seed", "1"),
    _FCLT + ("--reps", "1", "--seed", "1"),
    _LEMMA + ("--reps", "1", "--seed", "1"),
    _PRODUCT + ("--reps", "1", "--seed", "1"),
    _LEMMA + ("--reps", "5", "--band", "1", "--seed", "1"),
    _LEMMA + ("--reps", "5", "--trend-tol", "0", "--seed", "1"),
    _REMARK + ("--reps", "5", "--eps", "0.6", "--t", "0.5", "--seed", "1"),
    _REMARK + ("--reps", "5", "--seed", "18446744073709551616"),
    ("sample", "--alpha", "2", "--beta", "0", "--n", "5", "--seed", "-1"),
    # flag errors argparse finds
    ("sample", "--alpha", "2", "--beta", "0", "--n", "5.0"),
    ("sample", "--alpha", "2", "--beta", "0", "--n", "5", "--bogus", "1"),
    ("verify-fclt", "--family", "gamma", "--seed", "1"),
    # thresholds, bands and tolerances must be finite; times must be distinct
    _REMARK + ("--reps", "5", "--threshold", "nan", "--seed", "1"),
    _PRODUCT + ("--reps", "5", "--threshold", "-1", "--seed", "1"),
    _FCLT + ("--reps", "5", "--threshold", "inf", "--seed", "1"),
    ("verify-sampler", "--alpha", "2", "--beta", "0", "--n", "10",
     "--threshold", "0", "--seed", "1"),
    ("verify-fclt", "--n", "100", "--grid", "8", "--times", "0.5,0.5",
     "--reps", "5", "--seed", "1"),
    _LEMMA + ("--reps", "5", "--band", "inf", "--seed", "1"),
    _LEMMA + ("--reps", "5", "--trend-tol", "inf", "--seed", "1"),
    # an option of another family, one case per family; each runs without it
    _LEMMA + ("--tail-index", "1.5", "--reps", "5", "--seed", "1"),
    _PRODUCT + ("--rate", "2", "--reps", "5", "--seed", "1"),
    _LEMMA + ("--family", "two-sided-pareto", "--tail-index", "1.5", "--shift", "1",
              "--reps", "5", "--seed", "1"),
    _LEMMA + ("--family", "exact-stable", "--alpha", "1.5", "--beta", "0",
              "--asymmetry", "0.5", "--reps", "5", "--seed", "1"),
    _FCLT + ("--family", "degenerate", "--value", "1", "--x-min", "2",
             "--reps", "5", "--seed", "1"),
    # draws from 0 up: verify_fclt refuses a family without positivity
    ("verify-fclt", "--family", "pareto", "--tail-index", "1.5", "--shift", "-2",
     "--seed", "1"),
    # lists that do not parse, an empty list, a mandatory option left out
    ("verify-fclt", "--times", "0.5,x", "--seed", "1"),
    ("verify-lemma", "--ns", "10,1e3", "--seed", "1"),
    ("verify-fclt", "--times", "", "--seed", "1"),
    ("sample", "--alpha", "2", "--beta", "0"),
    # j = 1 of 4 cells cuts 2 * 1 // 4 = 0 draws
    ("verify-fclt", "--times", "0.25", "--n", "2", "--grid", "4", "--seed", "1"),
    # a norming or scale constant that overflows the float range
    _LEMMA + ("--family", "pareto", "--tail-index", "1.5", "--x-min", "1e300",
              "--seed", "1"),
    _FCLT + ("--family", "pareto", "--tail-index", "1.5", "--x-min", "1e300",
             "--seed", "1"),
    ("verify-sampler", "--alpha", "0.5", "--beta", "1", "--n", "10",
     "--dispersion", "1e300", "--seed", "1"),
    ("sample", "--alpha", "0.5", "--beta", "1", "--n", "10", "--dispersion", "1e300"),
])
def test_bad_params_exit_two(tmp_path, capsys, args):
    out = tmp_path / "o"
    assert _run(*args, "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {args[0]}: ") and err.count("\n") == 1
    assert not out.exists()  # config errors never touch the filesystem


@pytest.mark.parametrize("args, minimum", [
    (("paths", "--alpha", "1.5", "--beta", "0", "--grid", "4"), 1),
    (("verify-fclt", "--n", "10", "--grid", "4", "--times", "1"), 2),
])
def test_a_replicate_count_past_2_to_the_32_is_refused_by_name(tmp_path, capsys, args,
                                                               minimum):
    # refused before any path file is written or the replicate matrix allocated
    out = tmp_path / "o"
    assert _run(*args, "--reps", "4294967297", "--seed", "1", "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: {args[0]}: reps must be in [{minimum}, 2**32], got 4294967297\n")
    assert not out.exists()


def test_family_options_from_a_config_file(tmp_path, capsys):
    # a config key is held to the family exactly as its flag is, and the
    # report records only the options the run read
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "o"
    for campaign, text, err in [
        ("verify-lemma", "family = exponential\ntail_index = 1.5\n",
         "--tail-index does not apply to --family exponential"),
        ("verify-fclt", "family = exact-stable\n",
         "config key 'family': 'exact-stable' is not one of exponential, pareto, "
         "two-sided-pareto, degenerate"),
    ]:
        cfg.write_text(text)
        assert _run(campaign, "--config", str(cfg), "--seed", "1",
                    "--out-dir", str(out)) == 2
        assert capsys.readouterr().err == f"error: {campaign}: {err}\n"
        assert not out.exists()
    cfg.write_text("family = pareto\ntail_index = 1.5\nshift = 0.5\n")
    config = _resolve(build_parser().parse_args(["verify-lemma", "--config", str(cfg)]))
    assert config.params == {"family": "pareto", "tail_index": 1.5, "x_min": 1.0,
                             "shift": 0.5, "ns": "100,1000,10000", "reps": 400,
                             "band": 2.0, "trend_tol": 0.25}


@pytest.mark.parametrize("grid_args", [
    ["--t-max", "inf"],
    ["--t-min=-inf"],
    ["--t-step", "inf"],
    ["--t-step", "nan"],
    ["--t-min=-1e308", "--t-max", "1e308"],
    ["--t-step", "1e-300"],
    ["--t-min", "1", "--t-max", "0"],
])
def test_verify_sampler_rejects_non_finite_grid(tmp_path, capsys, grid_args):
    out = tmp_path / "o"
    code = _run("verify-sampler", "--alpha", "2", "--beta", "0", "--n", "10",
                "--seed", "1", *grid_args, "--out-dir", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: verify-sampler:") and err.count("\n") == 1
    assert not out.exists()


def test_verify_sampler_names_a_span_that_overflows(tmp_path, capsys):
    # 2001 frequencies, but t_max - t_min = 2e308 is not a float
    out = tmp_path / "o"
    code = _run("verify-sampler", "--alpha", "1.5", "--beta", "0", "--n", "10",
                "--t-min=-1e308", "--t-max", "1e308", "--t-step", "1e305", "--seed", "1",
                "--out-dir", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: verify-sampler: --t-max - --t-min overflows: the frequencies from -1e+308 "
        "to 1e+308 span more than the largest float\n")
    assert not out.exists()


def test_verify_sampler_counts_a_grid_whose_slack_overflows(tmp_path, capsys):
    # 1798 frequencies up to the largest float: t_max - t_min is finite, so
    # the grid is built, and the run ends at the product that overflows
    out = tmp_path / "o"
    code = _run("verify-sampler", "--alpha", "1.5", "--beta", "0.5", "--n", "20",
                "--t-min", "0", "--t-max", "1.7976931348623157e308", "--t-step", "1e305",
                "--seed", "0", "--out-dir", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: verify-sampler: t*x overflows: max|t| * max|samples| is not finite\n")
    assert not out.exists()


def test_verify_sampler_grid_stops_at_t_max(tmp_path):
    # (5 - 0)/3 rounds to 2 steps, but t = 6 lies past --t-max
    code = _run("verify-sampler", "--alpha", "2", "--beta", "0", "--n", "100",
                "--seed", "1", "--t-min", "0", "--t-max", "5", "--t-step", "3",
                "--out-dir", str(tmp_path))
    assert code in (0, 1)
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert config["t_count"] == 2 and config["t_max"] == 3.0
    with open(tmp_path / "charfn_fit.csv") as fh:
        ts = [float(line.split(",")[0]) for line in fh.read().splitlines()[1:]]
    assert ts == [0.0, 3.0]


def test_library_default_frequency_grid_is_the_cli_default(tmp_path):
    # verify_sampler without t_grid and `verify-sampler` without --t-* test
    # the same frequencies, to the bit
    lib, cli = tmp_path / "lib", tmp_path / "cli"
    verify_sampler(StableParams(1.5, 0.0), 100, 1, out_dir=str(lib))
    assert _run("verify-sampler", "--alpha", "1.5", "--beta", "0", "--n", "100",
                "--seed", "1", "--out-dir", str(cli)) in (0, 1)
    assert (lib / "charfn_fit.csv").read_bytes() == (cli / "charfn_fit.csv").read_bytes()


@pytest.mark.parametrize("args, err", [
    (["verify-sampler", "--n", str(2**62)],
     "verify-sampler: n must be in [1, 1e+09], got 4611686018427387904"),
    (["verify-sampler", "--n", "20", "--dispersion", "1.7e308"],
     "verify-sampler: dispersion 1.7e+308 is too large: the control's doubled "
     "dispersion overflows"),
    (["sample", "--n", "20", "--location", "1.7e308"],
     "sample: the mean of the draws overflows"),
])
def test_inputs_near_the_float_range_exit_two(tmp_path, capsys, args, err):
    # refused in one line, with no warning and nothing written
    out = tmp_path / "o"
    assert _run(*args, "--alpha", "1.5", "--beta", "0.5", "--seed", "0",
                "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


_SUMS_OVERFLOW = "partial sums must be finite: a draw is inf or nan, or the sum overflows"
_LEMMA_MOMENTS_OVERFLOW = "the mean or standard error of the deviation sums overflows"


@pytest.mark.parametrize("args", [
    ["verify-fclt", "--family", "exponential", "--rate", "1e-307", "--n", "100",
     "--grid", "4", "--times", "1", "--reps", "20"],
    ["verify-fclt", "--family", "degenerate", "--value", "1.7e308", "--n", "100",
     "--grid", "4", "--times", "1", "--reps", "2"],
    ["verify-fclt", "--family", "exponential", "--rate", "1e-300", "--n", str(2**62),
     "--grid", "4", "--times", "1", "--reps", "2"],
    ["verify-lemma", "--family", "exponential", "--rate", "1e-300", "--ns", f"10,{2**62}",
     "--reps", "2"],
    ["verify-lemma", "--family", "degenerate", "--value", "1e307", "--ns", "10,1000",
     "--reps", "2"],
], ids=["sums", "point-mass-sums", "a_n", "lemma-a_n", "lemma-b_n"])
def test_an_overflow_anywhere_in_a_run_exits_two(tmp_path, capsys, args):
    # the partial sums or the norming overflow: one line, no warning (warnings
    # are errors here), and nothing written
    out = tmp_path / "o"
    assert _run(*args, "--seed", "1", "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {args[0]}: ") and "overflow" in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("args, name", [
    (["verify-fclt", "--family", "exponential", "--rate", "1e-300", "--n", str(2**62),
      "--grid", "4", "--times", "1", "--reps", "2"], f"a_n overflows at n={2**62}"),
    (["verify-lemma", "--family", "exponential", "--rate", "1e-300", "--ns", f"10,{2**62}",
      "--reps", "2"], f"a_n overflows at n={2**62}"),
    (["verify-lemma", "--family", "degenerate", "--value", "1e307", "--ns", "10,1000",
      "--reps", "2"], "b_n overflows at n=1000"),
    (["verify-fclt", "--family", "exponential", "--rate", "1e-307", "--n", "100",
      "--grid", "4", "--times", "1", "--reps", "20"], _SUMS_OVERFLOW),
    (["verify-fclt", "--family", "degenerate", "--value", "1.7e308", "--n", "100",
      "--grid", "4", "--times", "1", "--reps", "2"], _SUMS_OVERFLOW),
    (["verify-lemma", "--family", "exponential", "--rate", "1e-307", "--ns", "2,10",
      "--reps", "50"], _LEMMA_MOMENTS_OVERFLOW),
    (["verify-lemma", "--family", "exponential", "--rate", "7e-308", "--ns", "2,10",
      "--reps", "50"], "deviation sums must be finite: a draw is inf or nan, or the sum overflows"),
    (["verify-product", "--family", "exponential", "--rate", "1e-305", "--n", "4000",
      "--reps", "4"], "b_n overflows at n=4000"),
], ids=["a_n", "lemma-a_n", "lemma-b_n", "sums", "point-mass-sums", "lemma-mean",
        "lemma-deviation-sums", "product-b_n"])
def test_an_overflow_in_a_run_names_the_quantity(tmp_path, capsys, args, name):
    out = tmp_path / "o"
    assert _run(*args, "--seed", "1", "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"error: {args[0]}: {name}\n"
    assert not out.exists()


def test_a_standard_error_whose_squares_overflow_is_not_refused(tmp_path, capsys):
    # deviation sums near 1e160: their squares overflow, their standard
    # error is taken at a power-of-two scale
    assert _run("verify-lemma", "--family", "exponential", "--rate", "1e-160", "--ns", "2,10",
                "--reps", "50", "--seed", "1", "--out-dir", str(tmp_path)) in (0, 1)
    assert capsys.readouterr().err == ""
    details = json.loads((tmp_path / "report.json").read_text())["details"]
    assert all(0.0 < se < math.inf for se in details["ratio_stderr"])


def test_verify_sampler_at_a_huge_dispersion_runs_without_a_warning(tmp_path, capsys):
    assert _run("verify-sampler", "--alpha", "1.5", "--beta", "0.5", "--n", "20",
                "--seed", "0", "--dispersion", "8e307", "--out-dir", str(tmp_path)) in (0, 1)
    assert capsys.readouterr().err == ""
    json.loads((tmp_path / "report.json").read_text())


# config.spec of report.json for one input of each family, key order
# included: report bytes must not move when the spec's code does
_FAMILY_ARGS = {
    "exponential": ("--rate", "2.0"),
    "pareto": ("--tail-index", "1.5", "--x-min", "2.0", "--shift", "0.5"),
    "two-sided-pareto": ("--tail-index", "1.7", "--asymmetry", "-0.4"),
    "exact-stable": ("--alpha", "1.5", "--beta", "0.5", "--dispersion", "2.0",
                     "--location", "1.0"),
    "degenerate": ("--value", "3.0"),
}
_PINNED_SPECS = {
    "exponential": {"family": "Exponential(rate=2.0)", "known_mu": 0.5,
                    "known_alpha": 2.0, "known_beta": 0.0, "positivity": True},
    "pareto": {"family": "Pareto(tail_index=1.5, x_min=2.0, shift=0.5)",
               "known_mu": 6.5, "known_alpha": 1.5, "known_beta": 1.0,
               "positivity": True},
    "two-sided-pareto": {"family": "TwoSidedPareto(tail_index=1.7, asymmetry=-0.4)",
                         "known_mu": -0.9714285714285715, "known_alpha": 1.7,
                         "known_beta": -0.4, "positivity": False},
    "exact-stable": {"family": "ExactStable(params=StableParams(alpha=1.5, beta=0.5, "
                               "dispersion=2.0, location=1.0))",
                     "known_mu": 1.0, "known_alpha": 1.5, "known_beta": 0.5,
                     "positivity": False},
    "degenerate": {"family": "Degenerate(value=3.0)", "known_mu": 3.0,
                   "known_alpha": 2.0, "known_beta": 0.0, "positivity": True},
}


def _report_config(tmp_path, *args):
    assert _run(*args, "--seed", "1", "--out-dir", str(tmp_path)) in (0, 1)
    return json.loads((tmp_path / "report.json").read_text())["config"]


@pytest.mark.parametrize("family", sorted(_FAMILY_ARGS))
def test_lemma_report_pins_the_family_spec(tmp_path, family):
    config = _report_config(tmp_path, "verify-lemma", "--family", family,
                            *_FAMILY_ARGS[family], "--ns", "10,100", "--reps", "5")
    assert list(config["spec"].items()) == list(_PINNED_SPECS[family].items())


@pytest.mark.parametrize("campaign", ["verify-fclt", "verify-product"])
def test_positive_campaign_reports_pin_the_spec_and_transform(tmp_path, campaign):
    grid = ("--grid", "8", "--times", "1") if campaign == "verify-fclt" else ()
    config = _report_config(tmp_path, campaign, "--family", "pareto",
                            *_FAMILY_ARGS["pareto"], "--n", "100", "--reps", "5", *grid)
    assert list(config["spec"].items()) == list(_PINNED_SPECS["pareto"].items())
    if campaign == "verify-fclt":
        assert (config["fn"], config["f_prime_at_mu"]) == ("qi_log(mu=6.5)", 1.0)
    else:
        assert "fn" not in config


def test_help_prints_usage(capsys):
    assert _run("sample", "--help") == 0
    assert capsys.readouterr().out.startswith("usage: stablesums sample")


def test_paths_csv_schema(tmp_path):
    assert _run("paths", "--alpha", "1.6", "--beta", "-0.5", "--grid", "16",
                "--reps", "2", "--seed", "4", "--out-dir", str(tmp_path)) == 0
    for r in range(2):
        with open(tmp_path / f"path_{r:04d}.csv") as fh:
            lines = fh.read().splitlines()
        path = simulate_levy_path(1.6, -0.5, stream(4, 0, r), 16)
        assert lines[0] == "t,value"
        assert lines[1:] == [f"{t!r},{v!r}" for t, v in
                             zip(path.times.tolist(), path.values.tolist())]
    report = json.loads((tmp_path / "report.json").read_text())
    assert "path_0001.csv" in report["artifacts"]


_SMALL = {
    "sample": ["--alpha", "1.5", "--beta", "1", "--n", "30"],
    "paths": ["--alpha", "1.5", "--beta", "1", "--grid", "8", "--reps", "2"],
    "verify-sampler": ["--alpha", "2", "--beta", "0", "--n", "200"],
    "verify-remark": ["--alpha", "2", "--beta", "0", "--reps", "20", "--grid", "16"],
    "verify-fclt": ["--n", "100", "--grid", "8", "--times", "0.5,1", "--reps", "20"],
    "verify-lemma": ["--family", "pareto", "--tail-index", "1.5", "--ns", "10,100",
                     "--reps", "5"],
    "verify-product": ["--tail-index", "1.5", "--n", "100", "--reps", "20"],
}


@pytest.mark.parametrize("campaign", sorted(_SMALL))
def test_csv_rows_match_their_header(tmp_path, campaign):
    assert _run(campaign, *_SMALL[campaign], "--seed", "1",
                "--out-dir", str(tmp_path)) in (0, 1)
    names = json.loads((tmp_path / "report.json").read_text())["artifacts"]
    csvs = [name for name in names if name.endswith(".csv")]
    assert csvs
    for name in csvs:
        header, *rows = (tmp_path / name).read_text().splitlines()
        assert rows
        assert all(row.count(",") == header.count(",") for row in rows), name


@pytest.mark.parametrize("campaign", sorted(_SMALL))
def test_every_artifact_keeps_its_bytes_on_a_rerun(tmp_path, campaign):
    # every CSV and JSON file of a run and of its plotdata, report.json with
    # its out_dir aside
    files = []
    for out in (tmp_path / "a", tmp_path / "b"):
        code = _run(campaign, *_SMALL[campaign], "--seed", "1", "--out-dir", str(out))
        assert code in (0, 1)
        assert _run("plotdata", "--report", str(out / "report.json")) == 0
        files.append((code, {path.name: path.read_bytes().replace(
            json.dumps(str(out)).encode(), b'"OUT_DIR"') for path in out.iterdir()}))
    assert files[0] == files[1]
    names = sorted(files[0][1])
    assert "report.json" in names and any(name.endswith(".csv") for name in names)
    assert all(name.endswith((".csv", ".json")) for name in names), names


def test_plotdata_overlays(tmp_path):
    out = tmp_path / "fclt"
    assert _run("verify-fclt", "--family", "exponential", "--n", "1000",
                "--grid", "16", "--times", "0.5,1.0", "--reps", "150",
                "--seed", "10", "--threshold", "0.085",
                "--out-dir", str(out)) == 0
    files = emit_plotdata(str(out / "report.json"))
    assert sorted(os.path.basename(f) for f in files) == \
        ["overlay_t0.5.csv", "overlay_t1.0.csv"]
    data = np.genfromtxt(files[0], delimiter=",", names=True)
    assert np.all(np.diff(data["x"]) > 0)
    assert np.all(np.diff(data["theoretical"]) >= -1e-12)
    assert data["empirical"].min() >= 0.0 and data["empirical"].max() <= 1.0


def test_plotdata_via_subcommand(tmp_path):
    out = tmp_path / "s"
    assert _run("sample", "--alpha", "2", "--beta", "0", "--n", "120",
                "--seed", "2", "--out-dir", str(out)) == 0
    assert _run("plotdata", "--report", str(out / "report.json")) == 0
    assert (out / "overlay.csv").exists()


def _far_tail_sample(tmp_path):
    # one draw at x = 3000 under (1.5, 1), where the Fourier inversion the CDF
    # once used did not converge
    (tmp_path / "samples.csv").write_text("value\n3000.0\n")
    (tmp_path / "limit_laws.json").write_text(json.dumps(
        {"sampled": {"alpha": 1.5, "beta": 1.0, "dispersion": 1.0, "location": 0.0}}))
    (tmp_path / "report.json").write_text(json.dumps(
        {"test_name": "sample", "artifacts": ["samples.csv", "limit_laws.json"]}))
    return str(tmp_path / "report.json")


def test_plotdata_far_tail_exits_zero(tmp_path):
    assert _run("plotdata", "--report", _far_tail_sample(tmp_path)) == 0
    data = np.genfromtxt(tmp_path / "overlay.csv", delimiter=",", names=True)
    # P(X > x) ~ C_alpha (1 + beta)/2 x^-alpha (Samorodnitsky & Taqqu, Prop. 1.2.15)
    c_alpha = (1 - 1.5) / (math.gamma(0.5) * math.cos(0.75 * math.pi))
    assert 1.0 - float(data["theoretical"]) == pytest.approx(c_alpha * 3000.0 ** -1.5, rel=1e-4)


def test_plotdata_quadrature_failure_exits_three(tmp_path, capsys, monkeypatch):
    # a tolerance below every error estimate of the CDF kernel makes it refuse
    monkeypatch.setattr(stable, "_MAX_ABSERR", -1.0)
    assert _run("plotdata", "--report", _far_tail_sample(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: plotdata: ") and err.count("\n") == 1
    assert not (tmp_path / "overlay.csv").exists()


def test_product_quadrature_failure_exits_three(tmp_path, capsys, monkeypatch):
    # the KS supremum evaluates the CDF only at some order statistics; a
    # failure at one of them still ends the campaign before anything is written
    monkeypatch.setattr(stable, "_MAX_ABSERR", -1.0)
    out = tmp_path / "out"
    assert _run("verify-product", "--family", "pareto", "--tail-index", "1.5",
                "--n", "200", "--reps", "40", "--seed", "5", "--out-dir", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: verify-product: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args, binding", [
    (("sample", "--alpha", "2", "--beta", "0", "--n", "100000000000"), "sample"),
    (("verify-lemma", "--ns", "10,100000000000", "--seed", "1"), "verify_lemma"),
], ids=["sample", "verify-lemma"])
@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 745. GiB", "Unable to allocate 745. GiB"),
    ("", "MemoryError"),
], ids=["numpy-message", "no-message"])
def test_allocation_failure_exits_two(tmp_path, capsys, monkeypatch, args, binding,
                                      message, shown):
    # an input too large to allocate ends in one error line, not a traceback
    def refuse(*_args, **_kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"stablesums.cli.{binding}", refuse)
    out = tmp_path / "out"
    assert _run(*args, "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"error: {args[0]}: {shown}\n"
    assert not out.exists()


_LIMIT = """
import resource, sys
import stablesums.cli
limit = 3 * 2**30   # address space: numpy and the small buffers fit, 745 GiB does not
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(stablesums.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("args, size", [
    (["verify-fclt", "--n", "100000000000", "--grid", "4", "--times", "1", "--reps", "2"],
     "n = 100000000000"),
    (["paths", "--alpha", "1.5", "--beta", "0", "--grid", "100000000000", "--reps", "1"],
     "grid = 100000000000"),
    (["verify-lemma", "--ns", "2,100000000000", "--reps", "2"], "ns up to 100000000000"),
    (["verify-remark", "--alpha", "1.5", "--beta", "0", "--grid", "100000000000",
      "--reps", "2"], "grid = 100000000000"),
    (["verify-product", "--tail-index", "1.5", "--n", "100000000000", "--reps", "2"],
     "n = 100000000000"),
], ids=["verify-fclt", "paths", "verify-lemma", "verify-remark", "verify-product"])
def test_an_allocation_failure_names_the_size(tmp_path, args, size):
    # a size too large to allocate, in a process whose address space is
    # bounded: one error line that names the option, exit 2, nothing written
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(stablesums.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", _LIMIT, *args, "--seed", "1",
                           "--out-dir", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {args[0]}: cannot allocate for {size}: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert not out.exists()


def test_readme_pipeline_writes_overlay(tmp_path):
    out = tmp_path / "runs" / "stable15"
    assert _run("sample", "--alpha", "1.5", "--beta", "1", "--n", "100000",
                "--seed", "1", "--out-dir", str(out)) == 0
    assert _run("plotdata", "--report", str(out / "report.json")) == 0
    data = np.genfromtxt(out / "overlay.csv", delimiter=",", names=True)
    assert data.size == 2048
    assert np.max(np.abs(data["empirical"] - data["theoretical"])) < 0.01


def _plotdata_of(tmp_path, report, laws):
    (tmp_path / "samples.csv").write_text("value\n0.5\n")
    (tmp_path / "limit_laws.json").write_text(json.dumps(laws))
    (tmp_path / "report.json").write_text(json.dumps(report))
    return ("plotdata", "--report", str(tmp_path / "report.json"))


_SAMPLE_REPORT = {"test_name": "sample", "artifacts": ["samples.csv", "limit_laws.json"]}


def _sample_with_config(tmp_path, content):
    """A sample run with the config file ``content`` (bytes, or text), or
    with ``content`` itself as the config path when it is a path."""
    path = tmp_path / "c.cfg"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    else:
        path = content
    return ("sample", "--config", str(path), "--out-dir", str(tmp_path / "o"))


@pytest.mark.parametrize("make_args", [
    # a report path that is a directory
    lambda tmp: ("plotdata", "--report", str(tmp)),
    # a report.json that holds a list, not an object
    lambda tmp: _plotdata_of(tmp, [_SAMPLE_REPORT], {}),
    # an artifact list that is not a list
    lambda tmp: _plotdata_of(tmp, {"test_name": "sample", "artifacts": 5}, {}),
    # a law without beta
    lambda tmp: _plotdata_of(tmp, _SAMPLE_REPORT, {"sampled": {"alpha": 2.0}}),
    # an out-dir that is an existing file
    lambda tmp: ("sample", "--alpha", "2", "--beta", "0", "--n", "5",
                 "--out-dir", str(tmp / "samples.csv")),
    # config files: a directory, a missing file, invalid JSON, a line without
    # "=" after a comment and a blank line, and a campaign key that names
    # another subcommand, beside n = 0
    lambda tmp: _sample_with_config(tmp, tmp),
    lambda tmp: _sample_with_config(tmp, tmp / "missing.cfg"),
    lambda tmp: _sample_with_config(tmp, '{"alpha": 2,'),
    lambda tmp: _sample_with_config(tmp, "# settings\n\nalpha = 2\nbeta\n"),
    lambda tmp: _sample_with_config(tmp, "campaign = paths\nalpha = 2\nbeta = 0\nn = 0\n"),
], ids=["report-is-a-directory", "report-holds-a-list", "artifacts-not-a-list",
        "law-without-beta", "out-dir-is-a-file", "config-is-a-directory",
        "config-missing", "config-invalid-json", "config-line-without-equals",
        "config-campaign-key"])
def test_bad_paths_and_files_exit_two(tmp_path, capsys, make_args):
    (tmp_path / "samples.csv").write_text("value\n0.5\n")
    args = make_args(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert _run(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {args[0]}: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before


_GAUSS = {"alpha": 2.0, "beta": 0.0, "dispersion": 1.0, "location": 0.0}
# extreme and easily misread values: negative zero, the least subnormal, the
# largest double, and two whose repr switches notation
_EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 1e-05, 1e+16]


def _artifact_report(tmp_path, campaign, source, laws):
    (tmp_path / "limit_laws.json").write_text(json.dumps(laws))
    (tmp_path / "report.json").write_text(json.dumps(
        {"test_name": campaign, "artifacts": [source, "limit_laws.json"]}))
    return str(tmp_path / "report.json")


def _overlay_x(path):
    header, *rows = path.read_text().splitlines()
    assert header == "x,empirical,theoretical"
    return [row.split(",")[0] for row in rows]


@pytest.mark.parametrize("values", [_EDGE_VALUES, [5e-324]], ids=["edge-values", "one-row"])
def test_plotdata_reads_back_every_written_bit(tmp_path, values):
    _write_csv(tmp_path, "samples.csv", "value", np.array(values))
    report = _artifact_report(tmp_path, "sample", "samples.csv", {"sampled": _GAUSS})
    assert _run("plotdata", "--report", report) == 0
    # repr round-trips, so equal text is equal bits, the sign of zero included
    assert _overlay_x(tmp_path / "overlay.csv") == [repr(v) for v in sorted(values)]


def test_plotdata_reads_back_the_statistics_columns(tmp_path):
    times = [0.5, 1.0]
    stats = np.array([_EDGE_VALUES, _EDGE_VALUES[::-1]]).T
    _write_csv(tmp_path, "statistics.csv", "rep,t,value", np.repeat(np.arange(5), 2),
               np.tile(times, 5), stats.ravel())
    laws = {repr(t): _GAUSS for t in times}
    report = _artifact_report(tmp_path, "verify-fclt", "statistics.csv", laws)
    assert _run("plotdata", "--report", report) == 0
    for t, column in zip(times, stats.T):
        got = _overlay_x(tmp_path / f"overlay_t{t!r}.csv")
        assert got == [repr(v) for v in sorted(column.tolist())]


@pytest.mark.parametrize("source,text", [
    ("samples.csv", "value\n"),
    ("samples.csv", "value\n0.5\nabc\n"),
    ("statistics.csv", "rep,t,value\n0,0.5,1.0\n1,0.5\n"),
    ("statistics.csv", "rep,t,value\n0.5,1.0\n0.5,2.0\n"),
    ("statistics.csv", "rep,value\n0,1.0\n"),
], ids=["header-only", "non-numeric-cell", "short-row", "narrow-rows", "no-t-column"])
def test_plotdata_refuses_a_malformed_artifact(tmp_path, capsys, source, text):
    (tmp_path / source).write_text(text)
    campaign = "sample" if source == "samples.csv" else "verify-fclt"
    laws = {"sampled": _GAUSS} if source == "samples.csv" else {"0.5": _GAUSS}
    report = _artifact_report(tmp_path, campaign, source, laws)
    before = sorted(os.listdir(tmp_path))
    assert _run("plotdata", "--report", report) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: plotdata: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("name, content", [
    ("config", b"n = \xff\n"),
    ("report", b"{\xff}"),
    ("report", b"{not json\n"),
    ("samples", b"value\n\xff\n"),
], ids=["config-not-utf-8", "report-not-utf-8", "report-not-json", "samples-not-utf-8"])
def test_unreadable_files_are_named(tmp_path, capsys, name, content):
    # the one stderr line names the file that could not be decoded or parsed
    if name == "config":
        args = _sample_with_config(tmp_path, content)
        path = tmp_path / "c.cfg"
    else:
        args = _plotdata_of(tmp_path, _SAMPLE_REPORT, {"sampled": _GAUSS})
        path = tmp_path / ("report.json" if name == "report" else "samples.csv")
        path.write_bytes(content)
    before = sorted(os.listdir(tmp_path))
    assert _run(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {args[0]}: ") and err.count("\n") == 1
    assert str(path) in err
    assert sorted(os.listdir(tmp_path)) == before


def test_plotdata_missing_report(tmp_path):
    assert _run("plotdata", "--report", str(tmp_path / "nope.json")) == 2


def test_plotdata_report_without_artifacts(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"test_name": "verify-product",
                                  "artifacts": []}))
    with pytest.raises(FileNotFoundError):
        emit_plotdata(str(report))
    assert _run("plotdata", "--report", str(report)) == 2


def test_lemma_has_no_overlays(tmp_path):
    assert _run("verify-lemma", "--family", "exponential", "--ns", "50,500",
                "--reps", "50", "--seed", "4505",
                "--out-dir", str(tmp_path)) == 0
    assert emit_plotdata(str(tmp_path / "report.json")) == []


_STARTUP = """
import json, sys
import stablesums.cli
loaded = []
for argv in json.loads(sys.argv[1]):
    assert stablesums.cli.main(argv) in (0, 1), argv
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(json.dumps(loaded))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    # the package runs on numpy and the standard library alone: the stable
    # CDF, the quadrature nodes and the KS p-values included
    runs = [[c, *_SMALL[c], "--seed", "1", "--out-dir", str(tmp_path / c)]
            for c in sorted(_SMALL)]
    # plotdata of an alpha = 2 report (verify-remark) and of alpha = 1.5 ones
    runs += [["plotdata", "--report", str(tmp_path / c / "report.json")]
             for c in ("verify-remark", "sample", "verify-product")]
    src = os.path.dirname(os.path.dirname(stablesums.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _STARTUP, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[] for _ in runs]
    for c, alpha in (("verify-remark", 2.0), ("sample", 1.5), ("verify-product", 1.5)):
        laws = json.loads((tmp_path / c / "limit_laws.json").read_text()).values()
        assert {law["alpha"] for law in laws} == {alpha}
        assert list((tmp_path / c).glob("overlay*.csv"))


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "stablesums.cli", "sample", "--alpha", "2",
         "--beta", "0", "--n", "10", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "report.json").exists()
