"""Command-line campaigns over the library.

Subcommands: ``sample``, ``paths``, ``verify-sampler``, ``verify-remark``,
``verify-fclt``, ``verify-lemma``, ``verify-product``, ``plotdata``.  Every
campaign writes ``report.json`` plus CSV artifacts into ``--out-dir``
(default: current directory).  Exit codes: 0 campaign passed, 1 campaign
failed (report still written), 2 configuration error (nothing written).

Options may come from ``--config FILE`` (JSON object, or ``key=value`` lines
with ``#`` comments) holding options of the same subcommand; explicit flags
override the file, the file overrides built-in defaults.  Seeds are mandatory
for ``verify-*`` so no verification ever depends on hidden state;
``sample``/``paths`` default to seed 0.  Results are byte-identical for a
given seed, because every replicate draws from its own counter-based stream.

The library checks its own inputs before it draws or writes, and this module
adds only the checks the library cannot make.  ``--out-dir`` is created by the
first write, so a configuration error leaves nothing behind.
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
from .rng import stream
from .stable import StableParams, cdf, sample
from .verification import (
    VerificationReport,
    _law_dict,
    _write_csv,
    _write_limit_laws,
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
# verify-sampler frequency grids hold at most this many points, about 1000
# times the default 101; a larger grid is a mistyped --t-step, not a test.
_MAX_T_POINTS = 10**5


class ConfigError(ValueError):
    """Invalid campaign configuration; nothing has been written."""


@dataclass
class CampaignConfig:
    """Fully resolved invocation of one campaign."""

    campaign: str
    seed: Optional[int]
    out_dir: str
    params: dict = field(default_factory=dict)


# Per-campaign defaults, applied after flags and config-file values.
_FAMILY_DEFAULTS = {"rate": 1.0, "x_min": 1.0, "shift": 0.0, "asymmetry": 0.0,
                    "dispersion": 1.0, "location": 0.0}
_DEFAULTS = {
    "sample": {"dispersion": 1.0, "location": 0.0},
    "paths": {"grid": 2**12, "reps": 1},
    "verify-sampler": {"dispersion": 1.0, "location": 0.0, "n": 10**6,
                       "t_min": -5.0, "t_max": 5.0, "t_step": 0.1,
                       "threshold": 5e-3},
    "verify-remark": {"reps": 5000, "grid": 2**12, "t": 1.0,
                      "threshold": 0.04},
    "verify-fclt": {**_FAMILY_DEFAULTS, "family": "exponential", "n": 10**4,
                    "grid": 2**12, "times": "0.25,0.5,0.75,1.0", "reps": 5000,
                    "threshold": 0.04},
    "verify-lemma": {**_FAMILY_DEFAULTS, "family": "exponential",
                     "ns": "100,1000,10000", "reps": 400, "band": 2.0,
                     "trend_tol": 0.25},
    "verify-product": {**_FAMILY_DEFAULTS, "family": "pareto", "n": 10**4,
                       "reps": 5000, "threshold": 0.07},
}

_COERCE = {
    "alpha": float, "beta": float, "dispersion": float, "location": float,
    "rate": float, "tail_index": float, "x_min": float, "shift": float,
    "asymmetry": float, "value": float, "t": float, "eps": float,
    "t_min": float, "t_max": float, "t_step": float, "threshold": float,
    "band": float, "trend_tol": float,
    "n": int, "reps": int, "grid": int, "seed": int,
    "times": str, "ns": str, "family": str, "out_dir": str,
}


def _parse_number_list(text: str, kind, what: str):
    try:
        return [kind(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"could not parse {what} list {text!r}") from exc


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


def _resolve(ns: argparse.Namespace) -> CampaignConfig:
    """Merge flag > config file > default, coercing config-file strings.

    A config file may set exactly the options of its subcommand."""
    campaign = ns.campaign
    merged = dict(_DEFAULTS[campaign])
    if ns.config:
        allowed = set(vars(build_parser().parse_args([campaign]))) - {"config"}
        for key, raw in _load_config_file(ns.config).items():
            key = key.replace("-", "_")
            if key == "campaign":
                continue
            if key not in allowed:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                merged[key] = _COERCE[key](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r}: cannot coerce {raw!r}") from exc
    for key, val in vars(ns).items():
        if val is not None and key not in ("campaign", "config"):
            merged[key] = val
    seed = merged.pop("seed", None)
    if seed is None and campaign not in _VERIFY:
        seed = 0  # documented fixed default; never wall clock
    out_dir = merged.pop("out_dir", None) or "."
    return CampaignConfig(campaign, seed=seed, out_dir=out_dir, params=merged)


def _require(params: dict, key: str):
    if params.get(key) is None:
        raise ConfigError(f"missing --{key.replace('_', '-')}")
    return params[key]


def _positive_int(params: dict, key: str) -> int:
    v = _require(params, key)
    if v < 1:
        raise ConfigError(f"--{key} must be at least 1, got {v!r}")
    return v


def _stable_params(params: dict) -> StableParams:
    return StableParams(_require(params, "alpha"), _require(params, "beta"),
                        params["dispersion"], params["location"])


def _build_spec(params: dict) -> DoaSpec:
    family = params["family"]
    if family == "exponential":
        return exponential(params["rate"])
    if family == "pareto":
        return pareto(_require(params, "tail_index"), params["x_min"],
                      params["shift"])
    if family == "two-sided-pareto":
        return two_sided_pareto(_require(params, "tail_index"),
                                params["asymmetry"])
    if family == "exact-stable":
        return exact_stable(_stable_params(params))
    if family == "degenerate":
        return degenerate(_require(params, "value"))
    raise ConfigError(f"family must be one of {', '.join(_FAMILIES)}, got {family!r}")


def _t_grid(params: dict) -> np.ndarray:
    """t-min + t-step*k for k = 0..round((t-max - t-min)/t-step)."""
    t_min, t_max, t_step = params["t_min"], params["t_max"], params["t_step"]
    if not all(math.isfinite(v) for v in (t_min, t_max, t_step)):
        raise ConfigError("--t-min, --t-max and --t-step must be finite")
    if not t_step > 0:
        raise ConfigError("--t-step must be positive")
    if not t_min < t_max:
        raise ConfigError("need --t-min < --t-max")
    steps = (t_max - t_min) / t_step
    if not steps <= _MAX_T_POINTS - 1:
        raise ConfigError(f"--t-step {t_step!r} gives {steps + 1:.4g} frequencies "
                          f"from --t-min to --t-max, more than {_MAX_T_POINTS}")
    return t_min + t_step * np.arange(int(round(steps)) + 1)


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
    c, p, out, seed = config.campaign, config.params, config.out_dir, config.seed
    if c == "sample":
        params = _stable_params(p)
        n = _positive_int(p, "n")
        draws = sample(params, stream(seed, 0), n)
        return _trivial_report(config, "sample", n, 1, {"mean": float(draws.mean())}, [
            _write_csv(out, "samples.csv", "value", [(float(v),) for v in draws]),
            _write_limit_laws(out, {"sampled": _law_dict(params)}),
        ])
    if c == "paths":
        law = StableParams(_require(p, "alpha"), _require(p, "beta"), 1.0, 0.0)
        reps = _positive_int(p, "reps")
        names = []
        for r in range(reps):
            path = simulate_levy_path(law.alpha, law.beta, stream(seed, 0, r), p["grid"])
            # made only once the first path has passed the library's checks
            os.makedirs(out, exist_ok=True)
            names.append(f"path_{r:04d}.csv")
            path.to_csv(os.path.join(out, names[-1]))
        names.append(_write_limit_laws(out, {"t=1.0": _law_dict(law)}))
        return _trivial_report(config, "paths", p["grid"], reps, {}, names)
    if c == "verify-sampler":
        return verify_sampler(_stable_params(p), p["n"], seed, t_grid=_t_grid(p),
                              threshold=p["threshold"], out_dir=out)
    if c == "verify-remark":
        return verify_remark(_require(p, "alpha"), _require(p, "beta"), p["reps"],
                             p["grid"], seed, t=p["t"], eps=p.get("eps"),
                             threshold=p["threshold"], out_dir=out)
    if c == "verify-fclt":
        spec = _build_spec(p)
        if not spec.positivity:
            raise ConfigError("the log transform needs a positive family")
        fc = FunctionalConfig(spec=spec, fn=qi_log(spec.known_mu),
                              n=p["n"], grid=p["grid"])
        times = _parse_number_list(p["times"], float, "times")
        return verify_fclt(fc, times, p["reps"], seed,
                           threshold=p["threshold"], out_dir=out)
    if c == "verify-lemma":
        ns = _parse_number_list(p["ns"], int, "ns")
        return verify_lemma(_build_spec(p), ns, p["reps"], seed,
                            band=p["band"], trend_tol=p["trend_tol"], out_dir=out)
    if c == "verify-product":
        return verify_product(_build_spec(p), p["n"], p["reps"], seed,
                              threshold=p["threshold"], out_dir=out)
    raise ConfigError(f"unknown campaign {c!r}")


def run(config: CampaignConfig) -> int:
    """Execute a resolved campaign; returns the process exit code.

    A bad configuration raises ``ValueError`` before anything is drawn or
    written."""
    if config.seed is None and config.campaign in _VERIFY:
        raise ConfigError("requires --seed (no wall-clock default)")
    report = _execute(config)
    report.config["invocation"] = {
        "campaign": config.campaign,
        "seed": config.seed,
        "out_dir": config.out_dir,
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

    def _load_column(name, column):
        path = os.path.join(report_dir, name)
        if name not in artifacts or not os.path.isfile(path):
            raise FileNotFoundError(f"report artifact {name} missing at {path}")
        data = np.genfromtxt(path, delimiter=",", names=True)
        return np.atleast_1d(data[column]), data

    written = []
    if campaign in ("sample", "verify-sampler"):
        values, _ = _load_column("samples.csv", "value")
        with open(os.path.join(report_dir, "limit_laws.json")) as fh:
            law = StableParams(**json.load(fh)["sampled"])
        name = _write_csv(out_dir, "overlay.csv", "x,empirical,theoretical",
                          _overlay_rows(values, law))
        written.append(os.path.join(out_dir, name))
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
            name = _write_csv(out_dir, f"overlay_t{t!r}.csv",
                              "x,empirical,theoretical", rows)
            written.append(os.path.join(out_dir, name))
    return written


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None,
                     help="64-bit stream seed (mandatory for verify-*)")
    sub.add_argument("--out-dir", type=str, default=None,
                     help="directory for report.json and artifacts (default: .)")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON or key=value settings file; flags override it")


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
    ns = build_parser().parse_args(argv)
    try:
        if ns.campaign == "plotdata":
            emit_plotdata(ns.report, ns.out_dir)
            return 0
        return run(_resolve(ns))
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {ns.campaign}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
