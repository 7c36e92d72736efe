"""Command-line campaigns over the library.

Subcommands: ``sample``, ``paths``, ``verify-sampler``, ``verify-remark``,
``verify-fclt``, ``verify-lemma``, ``verify-product``, ``plotdata``.  Every
campaign writes ``report.json`` plus CSV artifacts into ``--out-dir``
(default: current directory).  Exit codes: 0 campaign passed, 1 campaign
failed (report still written), 2 configuration error (nothing written).

Options may come from ``--config FILE`` (JSON object, or ``key=value`` lines
with ``#`` comments); explicit flags override the file, the file overrides
built-in defaults.  Seeds are mandatory for ``verify-*`` so no verification
ever depends on hidden state; ``sample``/``paths`` default to seed 0.  The
``--threads`` flag is an upper bound on worker threads; results are
byte-identical whatever its value, because every replicate draws from its own
counter-based stream.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .functionals import FunctionalConfig, qi_log
from .paths import (
    DoaSpec,
    degenerate,
    exact_stable,
    exponential,
    pareto,
    simulate_levy_path,
    two_sided_pareto,
)
from .rng import MAX_SEED, stream
from .stable import StableParams, cdf, sample
from .verification import (
    VerificationReport,
    ecdf,
    verify_fclt,
    verify_lemma,
    verify_product,
    verify_remark,
    verify_sampler,
)

__all__ = ["CampaignConfig", "ConfigError", "run", "emit_plotdata", "main"]

_VERIFY = ("verify-sampler", "verify-remark", "verify-fclt", "verify-lemma",
           "verify-product")
_FAMILIES = ("exponential", "pareto", "two-sided-pareto", "exact-stable",
             "degenerate")
_OVERLAY_MAX_ROWS = 2048


class ConfigError(ValueError):
    """Invalid campaign configuration; nothing has been written."""


@dataclass
class CampaignConfig:
    """Fully resolved invocation of one campaign."""

    campaign: str
    seed: Optional[int]
    out_dir: str
    threads: int
    params: dict = field(default_factory=dict)


# Per-campaign defaults, applied after flags and config-file values.
_DEFAULTS = {
    "sample": {"dispersion": 1.0, "location": 0.0},
    "paths": {"grid": 2**12, "reps": 1},
    "verify-sampler": {"dispersion": 1.0, "location": 0.0, "n": 10**6,
                       "t_min": -5.0, "t_max": 5.0, "t_step": 0.1,
                       "threshold": 5e-3},
    "verify-remark": {"reps": 5000, "grid": 2**12, "t": 1.0,
                      "threshold": 0.04},
    "verify-fclt": {"family": "exponential", "rate": 1.0, "x_min": 1.0,
                    "shift": 0.0, "asymmetry": 0.0, "dispersion": 1.0,
                    "location": 0.0, "n": 10**4, "grid": 2**12,
                    "times": "0.25,0.5,0.75,1.0", "reps": 5000,
                    "threshold": 0.04},
    "verify-lemma": {"family": "exponential", "rate": 1.0, "x_min": 1.0,
                     "shift": 0.0, "asymmetry": 0.0, "dispersion": 1.0,
                     "location": 0.0, "ns": "100,1000,10000", "reps": 400,
                     "band": 2.0, "trend_tol": 0.25},
    "verify-product": {"family": "pareto", "rate": 1.0, "x_min": 1.0,
                       "shift": 0.0, "asymmetry": 0.0, "dispersion": 1.0,
                       "location": 0.0, "n": 10**4, "reps": 5000,
                       "threshold": 0.07},
    "plotdata": {},
}

_COERCE = {
    "alpha": float, "beta": float, "dispersion": float, "location": float,
    "rate": float, "tail_index": float, "x_min": float, "shift": float,
    "asymmetry": float, "value": float, "t": float, "eps": float,
    "t_min": float, "t_max": float, "t_step": float, "threshold": float,
    "band": float, "trend_tol": float,
    "n": int, "reps": int, "grid": int, "seed": int, "threads": int,
    "times": str, "ns": str, "family": str, "report": str, "out_dir": str,
}


def _parse_number_list(text: str, kind, what: str):
    try:
        vals = [kind(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"could not parse {what} list {text!r}") from exc
    if not vals:
        raise ConfigError(f"{what} list is empty")
    return vals


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return data
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(campaign: str, cli_values: dict, file_values: dict) -> dict:
    """Merge flag > config file > default, coercing config-file strings."""
    merged = dict(_DEFAULTS[campaign])
    for key, raw in file_values.items():
        key = key.replace("-", "_")
        if key == "campaign":
            continue
        if key not in _COERCE:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            merged[key] = _COERCE[key](raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: cannot coerce {raw!r}") from exc
    for key, val in cli_values.items():
        if val is not None:
            merged[key] = val
    return merged


def _require(params: dict, key: str, campaign: str):
    if params.get(key) is None:
        raise ConfigError(f"{campaign} requires --{key.replace('_', '-')}")
    return params[key]


def _positive_int(params: dict, key: str, campaign: str) -> int:
    v = _require(params, key, campaign)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ConfigError(f"{campaign}: {key} must be a positive integer, got {v!r}")
    return v


def _build_spec(params: dict, campaign: str) -> DoaSpec:
    family = params.get("family")
    if family not in _FAMILIES:
        raise ConfigError(f"{campaign}: family must be one of {', '.join(_FAMILIES)}")
    try:
        if family == "exponential":
            return exponential(params["rate"])
        if family == "pareto":
            return pareto(_require(params, "tail_index", campaign),
                          params["x_min"], params["shift"])
        if family == "two-sided-pareto":
            return two_sided_pareto(_require(params, "tail_index", campaign),
                                    params["asymmetry"])
        if family == "exact-stable":
            return exact_stable(StableParams(
                _require(params, "alpha", campaign),
                _require(params, "beta", campaign),
                params["dispersion"], params["location"]))
        return degenerate(_require(params, "value", campaign))
    except ValueError as exc:
        raise ConfigError(f"{campaign}: {exc}") from exc


def _stable_params(params: dict, campaign: str) -> StableParams:
    try:
        return StableParams(
            alpha=_require(params, "alpha", campaign),
            beta=_require(params, "beta", campaign),
            dispersion=params.get("dispersion", 1.0),
            location=params.get("location", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{campaign}: {exc}") from exc


def _validate(config: CampaignConfig) -> None:
    """Reject bad configurations before anything touches the filesystem."""
    c, p = config.campaign, config.params
    if config.threads < 1:
        raise ConfigError("--threads must be >= 1")
    if config.seed is None:
        if c in _VERIFY:
            raise ConfigError(f"{c} requires --seed (no wall-clock default)")
    elif not 0 <= config.seed <= MAX_SEED:
        raise ConfigError(f"seed must be in [0, 2**64), got {config.seed}")

    if c == "sample":
        _stable_params(p, c)
        _positive_int(p, "n", c)
    elif c == "paths":
        alpha, beta = _require(p, "alpha", c), _require(p, "beta", c)
        if not (1.0 < alpha <= 2.0):
            raise ConfigError(f"paths: alpha must be in (1, 2], got {alpha}")
        if not (-1.0 <= beta <= 1.0):
            raise ConfigError(f"paths: beta must be in [-1, 1], got {beta}")
        _positive_int(p, "grid", c)
        _positive_int(p, "reps", c)
    elif c == "verify-sampler":
        _stable_params(p, c)
        _positive_int(p, "n", c)
        t_min, t_max, t_step = p["t_min"], p["t_max"], p["t_step"]
        if not all(math.isfinite(v) for v in (t_min, t_max, t_step)):
            raise ConfigError("verify-sampler: t-min, t-max and t-step must be finite")
        if not t_step > 0:
            raise ConfigError("verify-sampler: t-step must be positive")
        if not t_min < t_max:
            raise ConfigError("verify-sampler: need t-min < t-max")
        if not math.isfinite((t_max - t_min) / t_step):
            raise ConfigError("verify-sampler: (t-max - t-min)/t-step is not finite")
    elif c == "verify-remark":
        alpha = _require(p, "alpha", c)
        beta = _require(p, "beta", c)
        if not (1.0 < alpha <= 2.0):
            raise ConfigError(f"verify-remark: alpha must be in (1, 2], got {alpha}")
        if not (-1.0 <= beta <= 1.0):
            raise ConfigError(f"verify-remark: beta must be in [-1, 1], got {beta}")
        grid = _positive_int(p, "grid", c)
        _positive_int(p, "reps", c)
        if not 0.0 < p["t"] <= 1.0:
            raise ConfigError(f"verify-remark: t must be in (0, 1], got {p['t']}")
        eps = p.get("eps")
        if eps is not None and not 0.0 < eps < p["t"]:
            raise ConfigError(f"verify-remark: eps must be in (0, t), got {eps}")
    elif c == "verify-fclt":
        spec = _build_spec(p, c)
        n = _positive_int(p, "n", c)
        grid = _positive_int(p, "grid", c)
        _positive_int(p, "reps", c)
        times = _parse_number_list(p["times"], float, "times")
        for t in times:
            if not 0.0 < t <= 1.0:
                raise ConfigError(f"verify-fclt: time {t} outside (0, 1]")
            if abs(t * grid - round(t * grid)) > 1e-9:
                raise ConfigError(f"verify-fclt: time {t} not on a grid of {grid} cells")
            if n * round(t * grid) // grid < 1:
                raise ConfigError(f"verify-fclt: time {t} cuts an empty sum at n={n}")
        if not spec.positivity:
            raise ConfigError("verify-fclt: the log transform needs a positive family")
    elif c == "verify-lemma":
        _build_spec(p, c)
        ns = _parse_number_list(p["ns"], int, "ns")
        if len(ns) < 2 or sorted(set(ns)) != ns or ns[0] < 2:
            raise ConfigError("verify-lemma: ns must be >= 2 increasing integers >= 2")
        _positive_int(p, "reps", c)
        if not p["band"] > 1.0:
            raise ConfigError("verify-lemma: band must exceed 1")
        if not p["trend_tol"] > 0.0:
            raise ConfigError("verify-lemma: trend-tol must be positive")
    elif c == "verify-product":
        spec = _build_spec(p, c)
        if not spec.positivity:
            raise ConfigError("verify-product: family must guarantee positive draws")
        _positive_int(p, "n", c)
        _positive_int(p, "reps", c)
    elif c == "plotdata":
        report = _require(p, "report", c)
        if not os.path.isfile(report):
            raise ConfigError(f"plotdata: report file not found: {report}")
    else:
        raise ConfigError(f"unknown campaign {c!r}")


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _trivial_report(config: CampaignConfig, name: str, n: int, reps: int,
                    details: dict, artifacts: list) -> VerificationReport:
    # sample/paths produce data, not a hypothesis test; the schema stays
    # uniform with a vacuous statistic and an inert control.
    return VerificationReport(
        test_name=name, seed=int(config.seed), n=n, reps=reps,
        statistic=0.0, threshold=0.0, direction="leq", passed=True,
        config={}, details=details,
        negative_control={"name": "not-applicable", "statistic": 0.0,
                          "threshold": 0.0, "direction": "leq", "passed": False},
        artifacts=artifacts,
    )


def _execute(config: CampaignConfig) -> VerificationReport:
    c, p, out = config.campaign, config.params, config.out_dir
    if c == "sample":
        params = _stable_params(p, c)
        draws = sample(params, stream(config.seed, 0), p["n"])
        _write_csv(os.path.join(out, "samples.csv"), "value",
                   [(float(v),) for v in draws])
        with open(os.path.join(out, "limit_laws.json"), "w", newline="\n") as fh:
            json.dump({"sampled": {"alpha": params.alpha, "beta": params.beta,
                                   "dispersion": params.dispersion,
                                   "location": params.location}}, fh, indent=2)
            fh.write("\n")
        return _trivial_report(config, "sample", p["n"], 1,
                               {"mean": float(draws.mean()) if draws.size else 0.0},
                               ["samples.csv", "limit_laws.json"])
    if c == "paths":
        names = []
        for r in range(p["reps"]):
            path = simulate_levy_path(p["alpha"], p["beta"],
                                      stream(config.seed, 0, r), p["grid"])
            name = f"path_{r:04d}.csv"
            path.to_csv(os.path.join(out, name))
            names.append(name)
        law = StableParams(p["alpha"], p["beta"], 1.0, 0.0)
        with open(os.path.join(out, "limit_laws.json"), "w", newline="\n") as fh:
            json.dump({"t=1.0": {"alpha": law.alpha, "beta": law.beta,
                                 "dispersion": law.dispersion,
                                 "location": law.location}}, fh, indent=2)
            fh.write("\n")
        return _trivial_report(config, "paths", p["grid"], p["reps"], {},
                               names + ["limit_laws.json"])
    if c == "verify-sampler":
        params = _stable_params(p, c)
        steps = int(round((p["t_max"] - p["t_min"]) / p["t_step"]))
        grid = p["t_min"] + p["t_step"] * np.arange(steps + 1)
        return verify_sampler(params, p["n"], config.seed, t_grid=grid,
                              threshold=p["threshold"], out_dir=out)
    if c == "verify-remark":
        return verify_remark(p["alpha"], p["beta"], p["reps"], p["grid"],
                             config.seed, t=p["t"], eps=p.get("eps"),
                             threshold=p["threshold"], out_dir=out)
    if c == "verify-fclt":
        spec = _build_spec(p, c)
        fc = FunctionalConfig(spec=spec, fn=qi_log(spec.known_mu),
                              n=p["n"], grid=p["grid"])
        times = _parse_number_list(p["times"], float, "times")
        return verify_fclt(fc, times, p["reps"], config.seed,
                           threshold=p["threshold"], out_dir=out)
    if c == "verify-lemma":
        spec = _build_spec(p, c)
        ns = _parse_number_list(p["ns"], int, "ns")
        return verify_lemma(spec, ns, p["reps"], config.seed,
                            band=p["band"], trend_tol=p["trend_tol"], out_dir=out)
    if c == "verify-product":
        spec = _build_spec(p, c)
        return verify_product(spec, p["n"], p["reps"], config.seed,
                              threshold=p["threshold"], out_dir=out)
    raise ConfigError(f"unknown campaign {c!r}")


def run(config: CampaignConfig) -> int:
    """Execute a resolved campaign; returns the process exit code."""
    _validate(config)
    if config.campaign == "plotdata":
        emit_plotdata(config.params["report"],
                      config.params.get("out_dir_override"))
        return 0
    os.makedirs(config.out_dir, exist_ok=True)
    report = _execute(config)
    report.config["invocation"] = {
        "campaign": config.campaign,
        "seed": config.seed,
        "out_dir": config.out_dir,
        "threads": config.threads,
        "params": {k: v for k, v in sorted(config.params.items())},
    }
    report.write(os.path.join(config.out_dir, "report.json"))
    if config.campaign in ("sample", "paths"):
        return 0
    return 0 if report.campaign_passed else 1


def _overlay_rows(values: np.ndarray, law: StableParams):
    xs = np.sort(values)
    if xs.size > _OVERLAY_MAX_ROWS:
        idx = np.unique(np.linspace(0, xs.size - 1, _OVERLAY_MAX_ROWS).astype(int))
        xs = xs[idx]
    emp = ecdf(values)
    return [(float(x), float(emp(x)), cdf(law, float(x))) for x in xs]


def emit_plotdata(report_path: str, out_dir: Optional[str] = None) -> list:
    """ECDF-overlay CSVs (x, empirical, theoretical) for each tested marginal.

    Reads a campaign's report.json plus its CSV artifacts and writes one
    ``overlay_t<t>.csv`` per marginal (a single ``overlay.csv`` for sampler and
    sample campaigns) next to the report, or into ``out_dir``.  Campaigns
    without a distributional marginal (paths, verify-lemma) yield no files.
    Overlays are subsampled to at most 2048 rows, monotone in x.
    """
    report_dir = os.path.dirname(os.path.abspath(report_path))
    out_dir = report_dir if out_dir is None else out_dir
    with open(report_path) as fh:
        report = json.load(fh)
    campaign = report.get("test_name")
    artifacts = set(report.get("artifacts", []))
    os.makedirs(out_dir, exist_ok=True)

    def _load_column(name, column):
        path = os.path.join(report_dir, name)
        if name not in artifacts or not os.path.isfile(path):
            raise FileNotFoundError(f"report artifact {name} missing at {path}")
        data = np.genfromtxt(path, delimiter=",", names=True)
        return np.atleast_1d(data[column]), data

    written = []
    if campaign in ("sample", "verify-sampler"):
        values, _ = _load_column("samples.csv", "value")
        law_key = "sampled"
        laws = json.load(open(os.path.join(report_dir, "limit_laws.json")))
        law = StableParams(**laws[law_key])
        target = os.path.join(out_dir, "overlay.csv")
        _write_csv(target, "x,empirical,theoretical", _overlay_rows(values, law))
        written.append(target)
    elif campaign in ("verify-remark", "verify-fclt", "verify-product"):
        _, data = _load_column("statistics.csv", "value")
        ts = np.atleast_1d(data["t"])
        values = np.atleast_1d(data["value"])
        if campaign == "verify-fclt":
            limits = report["details"]["limits"]
        elif campaign == "verify-remark":
            limits = {repr(float(report["config"]["t"])): report["details"]["limit_law"]}
        else:
            limits = {repr(1.0): report["details"]["limit_law"]}
        for t in sorted(set(float(v) for v in ts)):
            law = StableParams(**limits[repr(t)])
            rows = _overlay_rows(values[ts == t], law)
            target = os.path.join(out_dir, f"overlay_t{t!r}.csv")
            _write_csv(target, "x,empirical,theoretical", rows)
            written.append(target)
    return written


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None,
                     help="64-bit stream seed (mandatory for verify-*)")
    sub.add_argument("--out-dir", type=str, default=None,
                     help="directory for report.json and artifacts (default: .)")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON or key=value settings file; flags override it")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker-thread cap; never changes results")


def _add_family(sub):
    sub.add_argument("--family", choices=_FAMILIES, default=None)
    sub.add_argument("--rate", type=float, default=None, help="exponential rate")
    sub.add_argument("--tail-index", type=float, default=None, dest="tail_index")
    sub.add_argument("--x-min", type=float, default=None, dest="x_min")
    sub.add_argument("--shift", type=float, default=None)
    sub.add_argument("--asymmetry", type=float, default=None)
    sub.add_argument("--value", type=float, default=None, help="degenerate point")
    sub.add_argument("--alpha", type=float, default=None, help="exact-stable index")
    sub.add_argument("--beta", type=float, default=None, help="exact-stable skewness")
    sub.add_argument("--dispersion", type=float, default=None)
    sub.add_argument("--location", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablesums",
        description="Simulation campaigns for stable partial-sum limit laws",
    )
    subs = parser.add_subparsers(dest="campaign", required=True)

    s = subs.add_parser("sample", help="draw iid stable variates to CSV")
    _add_common(s)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--beta", type=float, default=None)
    s.add_argument("--dispersion", type=float, default=None)
    s.add_argument("--location", type=float, default=None)
    s.add_argument("--n", type=int, default=None)

    s = subs.add_parser("paths", help="simulate stable Levy paths to CSV")
    _add_common(s)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--beta", type=float, default=None)
    s.add_argument("--grid", type=int, default=None)
    s.add_argument("--reps", type=int, default=None)

    s = subs.add_parser("verify-sampler", help="char-fn fidelity of the sampler")
    _add_common(s)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--beta", type=float, default=None)
    s.add_argument("--dispersion", type=float, default=None)
    s.add_argument("--location", type=float, default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--t-min", type=float, default=None, dest="t_min")
    s.add_argument("--t-max", type=float, default=None, dest="t_max")
    s.add_argument("--t-step", type=float, default=None, dest="t_step")
    s.add_argument("--threshold", type=float, default=None)

    s = subs.add_parser("verify-remark",
                        help="truncated path integral vs its stable law")
    _add_common(s)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--beta", type=float, default=None)
    s.add_argument("--reps", type=int, default=None)
    s.add_argument("--grid", type=int, default=None)
    s.add_argument("--t", type=float, default=None)
    s.add_argument("--eps", type=float, default=None)
    s.add_argument("--threshold", type=float, default=None)

    s = subs.add_parser("verify-fclt",
                        help="functional statistic marginals vs limit laws")
    _add_common(s)
    _add_family(s)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--grid", type=int, default=None)
    s.add_argument("--times", type=str, default=None,
                   help="comma-separated times in (0,1]")
    s.add_argument("--reps", type=int, default=None)
    s.add_argument("--threshold", type=float, default=None)

    s = subs.add_parser("verify-lemma",
                        help="boundedness of the mean-deviation sums")
    _add_common(s)
    _add_family(s)
    s.add_argument("--ns", type=str, default=None,
                   help="comma-separated horizons, increasing")
    s.add_argument("--reps", type=int, default=None)
    s.add_argument("--band", type=float, default=None)
    s.add_argument("--trend-tol", type=float, default=None, dest="trend_tol")

    s = subs.add_parser("verify-product",
                        help="log product statistic vs its stable law")
    _add_common(s)
    _add_family(s)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--reps", type=int, default=None)
    s.add_argument("--threshold", type=float, default=None)

    s = subs.add_parser("plotdata", help="ECDF overlays from a campaign report")
    s.add_argument("--report", type=str, required=True)
    s.add_argument("--out-dir", type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    campaign = ns.campaign
    try:
        if campaign == "plotdata":
            config = CampaignConfig(campaign, seed=None, out_dir=".", threads=1,
                                    params={"report": ns.report,
                                            "out_dir_override": ns.out_dir})
            return run(config)
        cli_values = {k: v for k, v in vars(ns).items()
                      if k not in ("campaign", "seed", "out_dir", "config", "threads")}
        file_values = _load_config_file(ns.config) if ns.config else {}
        seed = ns.seed if ns.seed is not None else file_values.pop("seed", None)
        if seed is not None:
            try:
                seed = int(seed)
            except (TypeError, ValueError):
                raise ConfigError(f"seed must be an integer, got {seed!r}")
        out_dir = ns.out_dir or file_values.pop("out_dir", None) or "."
        threads = ns.threads if ns.threads is not None else \
            int(file_values.pop("threads", 1))
        params = _resolve(campaign, cli_values, file_values)
        if campaign not in _VERIFY and seed is None:
            seed = 0  # documented fixed default; never wall clock
        config = CampaignConfig(campaign, seed=seed, out_dir=out_dir,
                                threads=threads, params=params)
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
