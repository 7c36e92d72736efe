"""Command-line campaigns over the library.

Subcommands: ``sample``, ``paths``, ``verify-sampler``, ``verify-remark``,
``verify-fclt``, ``verify-lemma``, ``verify-product``, ``plotdata``.  Every
campaign writes ``report.json`` plus CSV artifacts into ``--out-dir``
(default: current directory).  Exit codes: 0 campaign passed, 1 campaign
failed (report still written), 2 configuration error, a bad flag or an
unreadable or unwritable path included (nothing written), 3 numerical
failure: the error estimate of a stable CDF value exceeded its tolerance (no
report written).  Each error prints one line ``error: <subcommand>: ...``.

Options may come from ``--config FILE`` (JSON object, or ``key=value`` lines
with ``#`` comments) holding options of the same subcommand.  A file value is
parsed from its text exactly like the flag's, so an integer option needs an
integer (``n = 40``, not ``40.0``).  Explicit flags override the file, the
file overrides built-in defaults.  Seeds are mandatory for ``verify-*`` so no
verification ever depends on hidden state; ``sample``/``paths`` default to
seed 0.  Results are byte-identical for a given seed, because every replicate
draws from its own counter-based stream.

``--family`` picks the input of ``verify-fclt``, ``verify-lemma`` and
``verify-product``.  Each family reads only its own options (``_SPECS``); an
option of another family, flag or config key, is a configuration error.
``exact-stable`` is offered by ``verify-lemma`` alone: the log transform of
the other two needs positive draws.

The library checks its own inputs before it draws or writes, and this module
adds only the checks the library cannot make.  A real number outside its
range is refused in one form, ``<name> must be in <interval>, got <value>``,
for example ``alpha must be in (1, 2], got 2.5``.  ``--out-dir`` is created by
the first write, so a configuration error leaves nothing behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .paths import (
    DEFAULT_GRID,
    Degenerate,
    DoaSpec,
    ExactStable,
    Exponential,
    Pareto,
    TwoSidedPareto,
    simulate_levy_path,
)
from .rng import _check_count, _check_real, stream
from .stable import QuadratureError, StableParams, cdf, sample
from .verification import (
    VerificationReport,
    _json,
    _write,
    _write_csv,
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


# Every campaign option, declared once as (argparse type, default, help): the
# subcommand parsers, the keys a config file may set, their parsing and the
# defaults all come from this table.  A tuple type lists the choices of a
# string option; a None default means the option has none.
_COMMON = {
    "seed": (int, None, "64-bit stream seed (mandatory for verify-*)"),
    "out_dir": (str, None, "directory for report.json and artifacts (default: .)"),
    "config": (str, None, "JSON or key=value settings file; flags override it"),
}
_ALPHA_BETA = {"alpha": (float, None, None), "beta": (float, None, None)}
_LAW = {**_ALPHA_BETA, "dispersion": (float, 1.0, None),
        "location": (float, 0.0, None)}
# Each input family, declared once: its class and the options it reads, in
# the class's argument order.  A run with --family reads only the options of
# its family; an option of another family is refused.
_SPECS = {
    "exponential": (Exponential, ("rate",)),
    "pareto": (Pareto, ("tail_index", "x_min", "shift")),
    "two-sided-pareto": (TwoSidedPareto, ("tail_index", "asymmetry")),
    "exact-stable": (lambda *law: ExactStable(StableParams(*law)),
                     ("alpha", "beta", "dispersion", "location")),
    "degenerate": (Degenerate, ("value",)),
}
_FAMILY_OPTIONS = {key for _, keys in _SPECS.values() for key in keys}
_INPUTS = {
    "rate": (float, 1.0, "exponential rate"),
    "tail_index": (float, None, None),
    "x_min": (float, 1.0, None),
    "shift": (float, 0.0, None),
    "asymmetry": (float, 0.0, None),
    "value": (float, None, "degenerate point"),
}
_FAMILY = {
    "family": (tuple(_SPECS), "exponential", None), **_INPUTS, **_LAW,
    "alpha": (float, None, "exact-stable index"),
    "beta": (float, None, "exact-stable skewness"),
}
# The log transform of verify-fclt and verify-product needs positive draws,
# which exact-stable inputs never are.
_POSITIVE = tuple(family for family in _SPECS if family != "exact-stable")
_OPTIONS = {
    "sample": ("draw iid stable variates to CSV", {
        **_COMMON, **_LAW, "n": (int, None, None)}),
    "paths": ("simulate stable Levy paths to CSV", {
        **_COMMON, **_ALPHA_BETA, "grid": (int, DEFAULT_GRID, None),
        "reps": (int, 1, None)}),
    "verify-sampler": ("char-fn fidelity of the sampler", {
        **_COMMON, **_LAW, "n": (int, 10**6, None),
        "t_min": (float, -5.0, None), "t_max": (float, 5.0, None),
        "t_step": (float, 0.1, None), "threshold": (float, 5e-3, None)}),
    "verify-remark": ("truncated path integral vs its stable law", {
        **_COMMON, **_ALPHA_BETA, "reps": (int, 5000, None),
        "grid": (int, DEFAULT_GRID, None), "t": (float, 1.0, None),
        "eps": (float, None, None), "threshold": (float, 0.04, None)}),
    "verify-fclt": ("functional statistic marginals vs limit laws", {
        **_COMMON, "family": (_POSITIVE, "exponential", None), **_INPUTS,
        "n": (int, 10**4, None),
        "grid": (int, DEFAULT_GRID, None),
        "times": (str, "0.25,0.5,0.75,1.0", "comma-separated times in (0,1]"),
        "reps": (int, 5000, None), "threshold": (float, 0.04, None)}),
    "verify-lemma": ("boundedness of the mean-deviation sums", {
        **_COMMON, **_FAMILY,
        "ns": (str, "100,1000,10000", "comma-separated horizons, increasing"),
        "reps": (int, 400, None), "band": (float, 2.0, None),
        "trend_tol": (float, 0.25, None)}),
    "verify-product": ("log product statistic vs its stable law", {
        **_COMMON, "family": (_POSITIVE, "pareto", None), **_INPUTS,
        "n": (int, 10**4, None), "reps": (int, 5000, None),
        "threshold": (float, 0.07, None)}),
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
    """Merge flag > config file > default.

    A config file may set exactly the options of its subcommand, and each
    value is parsed from its text by the option's own flag type.  A run with
    --family keeps only the options its family reads."""
    campaign = ns.campaign
    options = _OPTIONS[campaign][1]
    given = {}
    if ns.config:
        for key, raw in _load_config_file(ns.config).items():
            key = key.replace("-", "_")
            if key == "campaign":
                continue
            if key not in options or key == "config":
                raise ConfigError(f"unknown config key {key!r}")
            kind = options[key][0]
            if isinstance(kind, tuple) and str(raw) not in kind:
                raise ConfigError(f"config key {key!r}: {raw!r} is not one of "
                                  f"{', '.join(kind)}")
            try:
                given[key] = str(raw) if isinstance(kind, tuple) else kind(str(raw))
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: cannot coerce {raw!r}") from exc
    for key, val in vars(ns).items():
        if val is not None and key not in ("campaign", "config"):
            given[key] = val
    merged = {key: default for key, (_, default, _) in options.items()
              if default is not None}
    merged.update(given)
    if "family" in options:
        family = merged["family"]
        for key in options:
            if key in _FAMILY_OPTIONS and key not in _SPECS[family][1]:
                if key in given:
                    raise ConfigError(f"--{key.replace('_', '-')} does not apply to "
                                      f"--family {family}")
                merged.pop(key, None)
    seed = merged.pop("seed", None)
    if seed is None and campaign not in _VERIFY:
        seed = 0  # documented fixed default; never wall clock
    out_dir = merged.pop("out_dir", None) or "."
    return CampaignConfig(campaign, seed=seed, out_dir=out_dir, params=merged)


def _require(params: dict, key: str):
    if params.get(key) is None:
        raise ConfigError(f"missing --{key.replace('_', '-')}")
    return params[key]


def _stable_params(params: dict) -> StableParams:
    return StableParams(*(_require(params, key) for key in _LAW))


def _build_spec(params: dict) -> DoaSpec:
    build, keys = _SPECS[params["family"]]
    return build(*(_require(params, key) for key in keys))


def _t_grid(params: dict) -> np.ndarray:
    """t-min + t-step*k for k = 0, 1, ... up to the last point not above t-max,
    give or take 8 ulps of max|t| of rounding."""
    t_min, t_max, t_step = params["t_min"], params["t_max"], params["t_step"]
    _check_real(t_min, "t_min")
    _check_real(t_max, "t_max")
    _check_real(t_step, "t_step", 0.0)
    if not t_min < t_max:
        raise ConfigError("need --t-min < --t-max")
    slack = 8 * math.ulp(max(abs(t_min), abs(t_max)))
    steps = (t_max - t_min + slack) / t_step
    if not steps < _MAX_T_POINTS:
        raise ConfigError(f"--t-step {t_step!r} gives {steps + 1:.4g} frequencies "
                          f"from --t-min to --t-max, more than {_MAX_T_POINTS}")
    return t_min + t_step * np.arange(math.floor(steps) + 1)


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
        n = _check_count(_require(p, "n"), "n", 1)
        draws = sample(params, stream(seed, 0), n)
        return _trivial_report(config, "sample", n, 1, {"mean": float(draws.mean())}, [
            _write_csv(out, "samples.csv", "value", draws),
            _write(out, "limit_laws.json", _json({"sampled": asdict(params)})),
        ])
    if c == "paths":
        law = StableParams(_require(p, "alpha"), _require(p, "beta"), 1.0, 0.0)
        reps = _check_count(_require(p, "reps"), "reps", 1)
        names = []
        for r in range(reps):
            path = simulate_levy_path(law.alpha, law.beta, stream(seed, 0, r), p["grid"])
            names.append(_write_csv(out, f"path_{r:04d}.csv", "t,value",
                                    path.times, path.values))
        names.append(_write(out, "limit_laws.json", _json({repr(1.0): asdict(law)})))
        return _trivial_report(config, "paths", p["grid"], reps, {}, names)
    if c == "verify-sampler":
        return verify_sampler(_stable_params(p), p["n"], seed, t_grid=_t_grid(p),
                              threshold=p["threshold"], out_dir=out)
    if c == "verify-remark":
        return verify_remark(_require(p, "alpha"), _require(p, "beta"), p["reps"],
                             p["grid"], seed, t=p["t"], eps=p.get("eps"),
                             threshold=p["threshold"], out_dir=out)
    if c == "verify-fclt":
        return verify_fclt(_build_spec(p), p["n"], p["grid"],
                           _parse_number_list(p["times"], float, "times"), p["reps"],
                           seed, threshold=p["threshold"], out_dir=out)
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
    _write(config.out_dir, "report.json", report.to_json())
    return 0 if report.campaign_passed else 1


def _overlay_columns(values: np.ndarray, law: StableParams):
    emp = ecdf(values)
    xs = emp.xs
    if xs.size > _OVERLAY_MAX_ROWS:
        xs = xs[np.unique(np.linspace(0, xs.size - 1, _OVERLAY_MAX_ROWS).astype(int))]
    return xs, emp(xs), cdf(law, xs)


def _read_object(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return data


def emit_plotdata(report_path: str, out_dir: Optional[str] = None) -> list:
    """ECDF-overlay CSVs (x, empirical, theoretical) for each tested marginal.

    Reads a campaign's report.json plus its CSV artifacts and writes one
    ``overlay_t<t>.csv`` per marginal (a single ``overlay.csv`` for sampler and
    sample campaigns) next to the report, or into ``out_dir``, with the laws
    of ``limit_laws.json``.  Campaigns without a distributional marginal
    (paths, verify-lemma) yield no files.  Overlays are subsampled to at most
    2048 rows, monotone in x.
    """
    report_dir = os.path.dirname(os.path.abspath(report_path))
    out_dir = report_dir if out_dir is None else out_dir
    report = _read_object(report_path)
    campaign = report.get("test_name")
    if campaign in ("sample", "verify-sampler"):
        source = "samples.csv"
    elif campaign in ("verify-remark", "verify-fclt", "verify-product"):
        source = "statistics.csv"
    else:
        return []

    def _artifact(name):
        path = os.path.join(report_dir, name)
        listed = report.get("artifacts", [])
        if not (isinstance(listed, list) and name in listed and os.path.isfile(path)):
            raise FileNotFoundError(f"report artifact {name} missing at {path}")
        return path

    data = np.genfromtxt(_artifact(source), delimiter=",", names=True)
    laws = _read_object(_artifact("limit_laws.json"))
    values = np.atleast_1d(data["value"])
    if source == "samples.csv":
        marginals = [("overlay.csv", "sampled", values)]
    else:
        ts = np.atleast_1d(data["t"])
        marginals = [(f"overlay_t{t!r}.csv", repr(t), values[ts == t])
                     for t in sorted(set(ts.tolist()))]
    written = []
    for name, key, sample_values in marginals:
        try:
            law = StableParams(**laws[key])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"limit_laws.json holds no valid law under {key!r}") from exc
        columns = _overlay_columns(sample_values, law)
        written.append(os.path.join(out_dir, _write_csv(
            out_dir, name, "x,empirical,theoretical", *columns)))
    return written


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag in the one line every configuration error gets;
    a subcommand's prog is "stablesums <subcommand>"."""

    def error(self, message):
        self.exit(2, f"error: {self.prog.split()[-1]}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stablesums",
        description="Simulation campaigns for stable partial-sum limit laws",
    )
    subs = parser.add_subparsers(dest="campaign", required=True)
    for campaign, (summary, options) in _OPTIONS.items():
        sub = subs.add_parser(campaign, help=summary)
        for key, (kind, _, text) in options.items():
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sub.add_argument("--" + key.replace("_", "-"), help=text, **typed)

    s = subs.add_parser("plotdata", help="ECDF overlays from a campaign report")
    s.add_argument("--report", type=str, required=True)
    s.add_argument("--out-dir", type=str, default=None)
    return parser


def main(argv=None) -> int:
    try:
        ns, unknown = build_parser().parse_known_args(argv)
    except SystemExit as exc:  # --help, or a bad flag already reported
        return exc.code
    try:
        if unknown:
            raise ConfigError(f"unrecognized arguments: {' '.join(unknown)}")
        if ns.campaign == "plotdata":
            emit_plotdata(ns.report, ns.out_dir)
            return 0
        return run(_resolve(ns))
    except (ValueError, OSError, QuadratureError) as exc:
        print(f"error: {ns.campaign}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, QuadratureError) else 2


if __name__ == "__main__":
    sys.exit(main())
