"""Command-line campaigns over the library.

Subcommands: ``sample``, ``paths``, ``verify-sampler``, ``verify-remark``,
``verify-fclt``, ``verify-lemma``, ``verify-product``, ``plotdata``.  Every
campaign writes ``report.json`` plus CSV artifacts into ``--out-dir``
(default: current directory).  Exit codes: 0 campaign passed, 1 campaign
failed (report still written), 2 configuration error, a bad flag, an input
whose derived constants overflow, an input too large to allocate, and an
unreadable, undecodable or unwritable file included (nothing written), 3 numerical
failure: the error estimate of a stable CDF value exceeded its tolerance (no
report written).  Each error prints one line ``error: <subcommand>: ...``.

One floating-point policy holds in ``main``: an evaluation that overflows by
design, such as ``stable.cdf``, silences its own scope and checks its
result, and any other overflow, division by zero or invalid operation in a
subcommand, in the partial sums or the norming say, exits 2 with one line
instead of a numpy warning.  Underflow is ignored.  ``run`` and
``emit_plotdata`` called from Python keep the caller's numpy settings.

Options may come from ``--config FILE`` (JSON object, or ``key=value`` lines
with ``#`` comments) holding options of the same subcommand.  A file value is
parsed from its text exactly like the flag's, so an integer option needs an
integer (``n = 40``, not ``40.0``).  Explicit flags override the file, the
file overrides the defaults, and an option named for a library parameter
takes the default of the library's signature.  Seeds are mandatory for
``verify-*`` so no verification ever depends on hidden state;
``sample``/``paths`` default to seed 0.  Results are byte-identical for a
given seed, because every replicate draws from its own counter-based stream.

``--family`` picks the input of ``verify-fclt``, ``verify-lemma`` and
``verify-product``.  A family reads the fields of its class (``_FAMILIES``),
with their defaults, and ``--help`` names the families that read each option;
an option of another family, flag or config key, is a configuration error.
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
import inspect
import json
import os
import re
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
from .rng import _check_count, _check_reps, _sized_by, stream
from .stable import QuadratureError, StableParams, cdf, sample
from .verification import (
    VerificationReport,
    _frequency_grid,
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

__all__ = ["CampaignConfig", "run", "emit_plotdata", "main"]

_OVERLAY_MAX_ROWS = 2048


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
# Each input family, declared once as the dataclass it builds (exact-stable
# wraps its law in ExactStable): the fields of the class are the options the
# family reads, with their defaults.  An option of another family is refused.
_FAMILIES = {"exponential": Exponential, "pareto": Pareto,
             "two-sided-pareto": TwoSidedPareto, "exact-stable": StableParams,
             "degenerate": Degenerate}
_FIELDS = {family: list(inspect.signature(cls).parameters) for family, cls in _FAMILIES.items()}
_READ_BY = {key: "read by --family " + ", ".join(name for name in _FIELDS if key in _FIELDS[name])
            for keys in _FIELDS.values() for key in keys}
# The log transform of verify-fclt and verify-product needs positive draws,
# which exact-stable inputs never are.
_POSITIVE = tuple(family for family in _FAMILIES if family != "exact-stable")


def _options(function, *names: str, helps: Optional[dict] = None) -> dict:
    """The parameters ``names`` of the library callable ``function``, or all of
    them (a dataclass's are its fields), as options with the library's default
    or none, typed int where it is an int and float otherwise, helped by ``helps``."""
    params = inspect.signature(function).parameters
    defaults = {name: params[name].default for name in names or params}
    return {name: (int if type(default) is int else float,
                   None if default is inspect.Parameter.empty else default,
                   (helps or {}).get(name)) for name, default in defaults.items()}


_LAW = _options(StableParams)
# paths and verify-remark simulate the law at dispersion 1 and location 0
_ALPHA_BETA = _options(StableParams, "alpha", "beta")
_FAMILY = {"family": (tuple(_FAMILIES), "exponential", None),
           **{key: option for cls in _FAMILIES.values()
              for key, option in _options(cls, helps=_READ_BY).items()}}
_INPUTS = {key: _FAMILY[key] for family in _POSITIVE for key in _FIELDS[family]}
_OPTIONS = {
    "sample": ("draw iid stable variates to CSV", {
        **_COMMON, **_LAW, "n": (int, None, None)}),
    "paths": ("simulate stable Levy paths to CSV", {
        **_COMMON, **_ALPHA_BETA, **_options(simulate_levy_path, "grid"),
        "reps": (int, 1, None)}),
    "verify-sampler": ("char-fn fidelity of the sampler", {
        **_COMMON, **_LAW, "n": (int, 10**6, None), **_options(_frequency_grid),
        **_options(verify_sampler, "threshold")}),
    "verify-remark": ("truncated path integral vs its stable law", {
        **_COMMON, **_ALPHA_BETA, "reps": (int, 5000, None),
        "grid": (int, DEFAULT_GRID, None),
        **_options(verify_remark, "t", "eps", "threshold")}),
    "verify-fclt": ("functional statistic marginals vs limit laws", {
        **_COMMON, "family": (_POSITIVE, "exponential", None), **_INPUTS,
        "n": (int, 10**4, None),
        "grid": (int, DEFAULT_GRID, None),
        "times": (str, "0.25,0.5,0.75,1.0", "comma-separated times in (0,1]"),
        "reps": (int, 5000, None), **_options(verify_fclt, "threshold")}),
    "verify-lemma": ("boundedness of the mean-deviation sums", {
        **_COMMON, **_FAMILY,
        "ns": (str, "100,1000,10000", "comma-separated horizons, increasing"),
        "reps": (int, 400, None), **_options(verify_lemma, "band", "trend_tol")}),
    "verify-product": ("log product statistic vs its stable law", {
        **_COMMON, "family": (_POSITIVE, "pareto", None), **_INPUTS,
        "n": (int, 10**4, None), "reps": (int, 5000, None),
        **_options(verify_product, "threshold")}),
}
_VERIFY = tuple(campaign for campaign in _OPTIONS if campaign.startswith("verify-"))


def _parse_number_list(text: str, kind, what: str):
    try:
        return [kind(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {what} list {text!r}") from exc


def _read_text(path: str) -> str:
    """The text of the file ``path``; one that cannot be opened or decoded is
    refused with a ``ValueError`` naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _read_object(path: str, text: Optional[str] = None) -> dict:
    """The JSON object in the file ``path``, whose text may be given already;
    anything else is refused with a ``ValueError`` naming the file."""
    try:
        data = json.loads(_read_text(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return data


def _load_config_file(path: str) -> dict:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return _read_object(path, text)
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(ns: argparse.Namespace) -> CampaignConfig:
    """Merge flag > config file > default.

    A config file may set exactly the options of its subcommand, and a
    ``campaign`` key must name that subcommand.  Each value is parsed from
    its text by the option's own flag type.  A run with
    --family keeps only the options its family reads."""
    campaign = ns.campaign
    options = _OPTIONS[campaign][1]
    given = {}
    if ns.config:
        for key, raw in _load_config_file(ns.config).items():
            key = key.replace("-", "_")
            if key == "campaign":
                if str(raw) != campaign:
                    raise ValueError(f"config key 'campaign': the file is for {raw}, "
                                     f"not {campaign}")
                continue
            if key not in options or key == "config":
                raise ValueError(f"unknown config key {key!r}")
            kind = options[key][0]
            if isinstance(kind, tuple) and str(raw) not in kind:
                raise ValueError(f"config key {key!r}: {raw!r} is not one of "
                                 f"{', '.join(kind)}")
            try:
                given[key] = str(raw) if isinstance(kind, tuple) else kind(str(raw))
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: cannot coerce {raw!r}") from exc
    for key, val in vars(ns).items():
        if val is not None and key not in ("campaign", "config"):
            given[key] = val
    merged = {key: default for key, (_, default, _) in options.items()
              if default is not None}
    merged.update(given)
    if "family" in options:
        family = merged["family"]
        for key in options:
            if key in _READ_BY and key not in _FIELDS[family]:
                if key in given:
                    raise ValueError(f"--{key.replace('_', '-')} does not apply to "
                                     f"--family {family}")
                merged.pop(key, None)
    seed = merged.pop("seed", None)
    if seed is None and campaign not in _VERIFY:
        seed = 0  # documented fixed default; never wall clock
    out_dir = merged.pop("out_dir", None) or "."
    return CampaignConfig(campaign, seed=seed, out_dir=out_dir, params=merged)


def _require(params: dict, key: str):
    if params.get(key) is None:
        raise ValueError(f"missing --{key.replace('_', '-')}")
    return params[key]


def _build(function, params: dict):
    """``function`` called with the options named for its parameters."""
    return function(*(_require(params, name) for name in inspect.signature(function).parameters))


def _build_spec(params: dict) -> DoaSpec:
    spec = _build(_FAMILIES[params["family"]], params)
    return ExactStable(spec) if isinstance(spec, StableParams) else spec


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
        params = _build(StableParams, p)
        n = _check_count(_require(p, "n"), "n", 1)
        draws = sample(params, stream(seed, 0), n)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(draws.mean())
        if not np.isfinite(mean):
            raise ValueError("the mean of the draws overflows")
        return _trivial_report(config, "sample", n, 1, {"mean": mean}, [
            _write_csv(out, "samples.csv", "value", draws),
            _write(out, "limit_laws.json", _json({"sampled": asdict(params)})),
        ])
    if c == "paths":
        law = StableParams(_require(p, "alpha"), _require(p, "beta"), 1.0, 0.0)
        reps = _check_reps(_require(p, "reps"), 1)
        names, t_text = [], None
        with _sized_by(f"grid = {p['grid']}"):
            for r in range(reps):
                path = simulate_levy_path(law.alpha, law.beta, stream(seed, 0, r), p["grid"])
                if t_text is None:   # every path has the same grid: format it once
                    t_text = np.array([repr(t) for t in path.times.tolist()])
                names.append(_write_csv(out, f"path_{r:04d}.csv", "t,value", t_text,
                                        path.values))
        names.append(_write(out, "limit_laws.json", _json({repr(1.0): asdict(law)})))
        return _trivial_report(config, "paths", p["grid"], reps, {}, names)
    if c == "verify-sampler":
        return verify_sampler(_build(StableParams, p), p["n"], seed,
                              t_grid=_build(_frequency_grid, p),
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
    raise ValueError(f"unknown campaign {c!r}")


def run(config: CampaignConfig) -> int:
    """Execute a resolved campaign; returns the process exit code.

    A bad configuration raises ``ValueError`` before anything is drawn or
    written."""
    if config.seed is None and config.campaign in _VERIFY:
        raise ValueError("requires --seed (no wall-clock default)")
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


def _read_columns(path: str, *names: str) -> list:
    """The columns ``names`` of a CSV artifact, as float arrays.  A file
    without rows, a missing column, a short row or a cell that is not a
    number, and a file that is not text, is refused with a ``ValueError``."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            for name in names:
                if name not in header:
                    raise ValueError(f"{path} has no column {name!r}")
            body = fh.tell()
            if not fh.readline().strip():   # np.loadtxt only warns on a file without rows
                raise ValueError(f"{path} holds no rows")
            fh.seek(body)
            try:
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:   # in the lines read before np.loadtxt
        raise ValueError(f"{path}: {exc}") from None
    if table.shape[1] != len(header):
        raise ValueError(f"{path} has {table.shape[1]} cells per row under "
                         f"{len(header)} column names")
    return [table[:, header.index(name)] for name in names]


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

    laws = _read_object(_artifact("limit_laws.json"))
    if source == "samples.csv":
        (values,) = _read_columns(_artifact(source), "value")
        marginals = [("overlay.csv", "sampled", values)]
    else:
        ts, values = _read_columns(_artifact(source), "t", "value")
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
    a subcommand's prog is "stablesums <subcommand>".  An argument such as
    -1e-3 is a negative number, not a flag: argparse's own pattern for
    negative numbers has no exponent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

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
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        # the floating-point policy of the module docstring
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            if ns.campaign == "plotdata":
                emit_plotdata(ns.report, ns.out_dir)
                return 0
            return run(_resolve(ns))
    except (ValueError, OSError, MemoryError, FloatingPointError, QuadratureError) as exc:
        print(f"error: {ns.campaign}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3 if isinstance(exc, QuadratureError) else 2


if __name__ == "__main__":
    sys.exit(main())
