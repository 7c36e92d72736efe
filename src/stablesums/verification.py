"""Goodness-of-fit machinery and the named verification campaigns.

Each ``verify_*`` function simulates one limit statement at scale, tests it
with a Kolmogorov-Smirnov statistic against its declared limit law, and also
re-tests the same simulated samples against a deliberately mis-specified null
(half the dispersion).  The report's ``passed`` flag answers "did the right
null survive"; ``campaign_passed`` additionally demands that the wrong null
was rejected, so a test with no power cannot certify anything.

Replicate r of every campaign draws from the sub-stream (seed, label, r) with
fixed labels per role, which keeps reports byte-identical across reruns
and chunkings.  Every campaign draws its replicates through one helper,
:func:`~stablesums.rng._replicates`: it keys the sub-streams of the
replicates a block of indices at a time, with the bits of
:func:`~stablesums.rng.stream` at each address, and stores replicate r's
values in row r of one matrix.  A campaign hands it two closures: the draw,
which calls ``sample`` or ``sample_doa`` on the calling thread, and the row,
which computes the replicate's values from that draw alone, on a worker
thread where the CPU mask holds two CPUs.  Only the row closures use the
working buffers below, and one thread runs them all, in order.
``verify_sampler`` draws its one stream through the loop beneath that helper,
:func:`~stablesums.rng._pipeline`: each chunk is drawn on the calling thread
and added to the ECF sums on the worker, in chunk order.

The replicated campaigns build what every replicate shares once per
campaign: k and log(k*mu), the cut indices, the Riemann cells, the increment
law and the working buffers.  A replicate then makes one draw call and does
only array arithmetic, in place, through the private kernels of
:mod:`.functionals` and :mod:`.paths` that also serve the public statistics.
So each formula is written once, and a campaign's per-replicate values are
bit for bit those of the public functions on the same draws.

A KS statistic against a stable law is a supremum over the order
statistics, and the CDF does not decrease, so the campaigns evaluate it only
where that supremum can fall (:func:`_ks_sup`): at every 16th order
statistic and the last, then in the runs between them whose bound comes
within 1e-6 of the largest gap found.  The CDF gives each point the value
it gives it in any array, so every statistic and p-value is bit for bit the
one :func:`ks_one_sample` gives from every point, and only the evaluated
points can raise :class:`~stablesums.stable.QuadratureError`.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .functionals import (
    _functional_kernel,
    _log_product_kernel,
    _riemann_kernel,
    limit_law,
    qi_log,
)
from .paths import DoaSpec, _increment_law, _partial_sums, _standard_error, sample_doa
from .rng import (_as_finite, _as_samples, _check_count, _check_real, _check_reps, _pipeline,
                  _replicates, _sized_by, stream)
from .stable import _MAX_ABSERR, StableParams, cdf, char_fn, sample

# The campaigns call the kernels behind these public functions, not the
# functions.  The names stay bound here because the benchmark's tracer
# (bench/spans.py) wraps each of them in this module.
from .functionals import functional_statistic, integral_riemann, log_product_statistic  # noqa: F401
from .paths import simulate_levy_path  # noqa: F401

__all__ = [
    "VerificationReport",
    "ecdf",
    "ks_two_sample",
    "ks_one_sample",
    "empirical_char_fn",
    "verify_sampler",
    "verify_remark",
    "verify_fclt",
    "verify_lemma",
    "verify_product",
]

# Sub-stream labels: simulation replicates, null-law draws, control draws.
_SIM, _NULL, _CONTROL = 0, 1, 2
# verify_sampler draws, and _ecf_kernel sums, in chunks of this size, so
# changing it changes the draws and the last bits of the sums.
_ECF_CHUNK = 2**14
# _ecf_kernel sums a chunk in blocks of this size, and takes at most this many
# baby steps and giant steps per matrix product, or frequencies per outer product.
_ECF_BLOCK = 2**12
_ECF_FACTOR = 16


class Ecdf:
    """Empirical CDF as a right-continuous step function."""

    def __init__(self, samples):
        self.xs = np.sort(_as_samples(samples, "samples"))
        self.n = self.xs.size

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(np.isnan(x)):
            raise ValueError("x must not be NaN")
        out = np.searchsorted(self.xs, x, side="right") / self.n
        if out.ndim == 0:
            return float(out)
        return out


ecdf = Ecdf


def _kolmogorov_sf(y: float) -> float:
    """P(K > y) for Kolmogorov's limit law K of sqrt(n) times the KS statistic,
    from the two classical series (Marsaglia, Tsang & Wang 2003): below
    y = 0.82 one minus the theta series of the CDF,
    sqrt(2 pi)/y sum_k exp(-(2k-1)^2 pi^2 / (8 y^2)), and above it the
    alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2).  Their first
    omitted terms are below 1e-40 on either side, and below y = 0.1 the theta
    series is below 1e-50, so the value there is 1."""
    if y < 0.1:
        return 1.0
    if y < 0.82:
        c = -(math.pi / y) ** 2 / 8.0
        return 1.0 - math.sqrt(2.0 * math.pi) / y * sum(
            math.exp(c * (2 * k - 1) ** 2) for k in range(4, 0, -1))
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * y * y) for k in range(11, 0, -1))


def _ks_pvalue(stat: float, en: float) -> float:
    """Asymptotic p-value of the KS statistic ``stat`` at effective sample
    size ``en**2``, with Stephens' correction en + 0.12 + 0.11/en: the
    survival function of Kolmogorov's law, :func:`_kolmogorov_sf`."""
    return _kolmogorov_sf((en + 0.12 + 0.11 / en) * stat)


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS statistic and its asymptotic p-value.

    The sup of |ECDF_a - ECDF_b| is attained right after a jump of either
    sample, so scanning the pooled points with right-continuous evaluation is
    exact.
    """
    fa, fb = Ecdf(_as_samples(a, "a")), Ecdf(_as_samples(b, "b"))
    pooled = np.concatenate([fa.xs, fb.xs])
    stat = float(np.abs(fa(pooled) - fb(pooled)).max())
    en = math.sqrt(fa.n * fb.n / (fa.n + fb.n))
    return stat, _ks_pvalue(stat, en)


# How far apart _marginal_fits first evaluates the CDF, and by how much a run
# may fall short of the largest gap and still be evaluated: 20 times
# stable._MAX_ABSERR, so a CDF that strays from monotone by its error
# tolerance cannot hide the supremum in a skipped run.
_KS_STRIDE = 16
_KS_SLACK = 20 * _MAX_ABSERR


def _cdf_values(cdf_fn, points: np.ndarray) -> np.ndarray:
    """``cdf_fn`` at ``points``, refused unless it is one value in [0, 1]
    (to within 1e-9) per point, and clipped to [0, 1]."""
    f = np.asarray(cdf_fn(points), dtype=float)
    if f.shape != points.shape or not np.all((f >= -1e-9) & (f <= 1.0 + 1e-9)):
        raise ValueError("cdf_fn must return one value in [0, 1] per sample")
    return np.clip(f, 0.0, 1.0)


def _ks_gaps(index: np.ndarray, n: int, f: np.ndarray) -> np.ndarray:
    """The larger one-sided KS gap at each order statistic ``index``
    (0-based) of n with CDF value ``f``: to the ECDF i/n after the jump
    and (i-1)/n before it."""
    upper = (index + 1) / n
    return np.maximum(upper - f, f - (upper - 1.0 / n))


def _ks_sup(xs: np.ndarray, cdf_fn) -> float:
    """sup |ECDF - F| over the sorted sample ``xs``, in at most two calls of
    ``cdf_fn``.

    The first call takes every ``_KS_STRIDE``-th order statistic and the last.
    F does not decrease, so between two of them, a < b, no point has a gap
    above max(b/n - F(x_a), F(x_b) - (a+1)/n).  The second call takes every
    point of each run whose bound comes within _KS_SLACK of the largest gap
    of the first.  The supremum then falls on an evaluated point, and as
    ``cdf_fn`` gives each point the value it gives it in any array, the
    statistic is bit for bit the one from evaluating every point.
    """
    n = xs.size
    first = np.unique(np.append(np.arange(0, n, _KS_STRIDE), n - 1))
    f = _cdf_values(cdf_fn, xs[first])
    stat = _ks_gaps(first, n, f).max()
    bound = np.maximum(first[1:] / n - f[:-1], f[1:] - (first[:-1] + 1) / n)
    todo = np.zeros(n, dtype=bool)
    todo[:-1] = np.repeat(bound >= stat - _KS_SLACK, np.diff(first))
    todo[first] = False
    rest = np.flatnonzero(todo)
    if rest.size:
        stat = max(stat, _ks_gaps(rest, n, _cdf_values(cdf_fn, xs[rest])).max())
    return float(stat)


def ks_one_sample(samples, cdf_fn) -> tuple[float, float]:
    """One-sample KS statistic against a continuous CDF, with p-value.

    ``cdf_fn`` is called once, with the sorted samples as one array, and
    returns the CDF at each of them; both one-sided gaps (before and after
    each jump of the ECDF) enter the sup.
    """
    xs = np.sort(_as_samples(samples, "samples"))
    n = xs.size
    stat = float(_ks_gaps(np.arange(n), n, _cdf_values(cdf_fn, xs)).max())
    return stat, _ks_pvalue(stat, math.sqrt(n))


# How far, relative to max|t|, a grid may stray from the progression it is
# taken for: a few ulps, so that only rounding is forgiven.
_GRID_ULPS = 8 * np.finfo(float).eps


def _common_step(t: np.ndarray):
    """The step dt when t is t[0] + dt*k, k = 0..t.size-1, to within a few
    ulps of max|t|; otherwise None.  Grids of one or two points also give
    None, because stepping through them saves no exponentials, and so do
    grids whose span t[-1] - t[0] overflows."""
    if t.size < 3:
        return None
    span = float(t[-1]) - float(t[0])   # Python floats overflow to inf without a warning
    if not math.isfinite(span):
        return None
    dt = span / (t.size - 1)
    drift = np.abs(t[0] + dt * np.arange(t.size) - t).max()
    return dt if drift <= _GRID_ULPS * np.abs(t).max() else None


def _cis(y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(i*y) for real y, written as cos and sin into one complex array,
    ``out`` when given: the values of np.exp(1j*y) at less cost."""
    if out is None:
        out = np.empty(y.shape, dtype=complex)
    np.cos(y, out=out.real)
    np.sin(y, out=out.imag)
    return out


def _ecf_kernel(t: np.ndarray):
    """The pair (add, sums): ``add(x)`` adds draws x of any length to the
    running sums sum_j exp(i*t_k*x_j), one for each frequency t_k of the 1-d
    grid t, in the array ``sums``.  It cuts x into pieces of ``_ECF_CHUNK``
    draws and adds each piece's sums, taken as below, to the running sums.

    On an arithmetic grid t_k = t_0 + k*dt the sums are power sums of
    z = exp(i*dt*x).  When the progression crosses zero inside the grid at
    an integer or half-integer index (-t_0/dt within a few ulps of one), the
    values of |t| form one progression: the kernel takes the K distinct
    |t|, from w0 = 1 when 0 is on the grid and from exp(i*min|t|*x),
    min|t| = |dt|/2, otherwise, and gives each negative t the conjugate of
    the sum at its mirror -t, as the draws are real.  Any other arithmetic
    grid, dt = 0 included, takes its K = t.size values from
    w0 = exp(i*t_0*x).

    The power sums s_k = sum_j w0_j z_j^k, k < K, are taken in baby steps
    and giant steps (Paterson & Stockmeyer 1973): with B = ceil(sqrt(K))
    capped at ``_ECF_FACTOR``, A = ceil(K/B) and k = B*a + b, the (A x B)
    matrix of s is P Q^T, where Q holds the rows z^b, b < B, and P the rows
    w0 z^(B*a), a < A.  Each block of ``_ECF_BLOCK`` draws builds them with
    A + B - 2 complex multiplies per draw and adds their product, taken by
    BLAS, to the piece's sums, with P in groups of at most ``_ECF_FACTOR``
    rows.  On the default grid -5 + 0.1*k, k = 0..100, that is K = 51,
    B = 8 and A = 7: one exponential and 13 multiplies per draw and one
    7 x 8 product per block.  The workspace is built here once and
    overwritten by each piece: at most 2*_ECF_FACTOR + 1 rows of
    ``_ECF_BLOCK`` complex values, about 2.1 MB whatever the grid, besides
    the (A x B) sums and the running sums.

    A grid that is not arithmetic, or whose span overflows, takes the outer
    product of each piece with at most ``_ECF_FACTOR`` frequencies at a
    time, about 6 MB whatever the grid.  Every exponential is taken by
    :func:`_cis`.  A call raises ``ValueError`` where some t*x overflows,
    that is where max|t| * max|x| is not finite.
    """
    t_max = float(np.abs(t).max(initial=0.0))
    total = np.zeros(t.size, dtype=complex)
    dt = _common_step(t)
    if dt is None:
        def add_piece(x: np.ndarray) -> None:
            for lo in range(0, t.size, _ECF_FACTOR):
                rows = slice(lo, lo + _ECF_FACTOR)
                total[rows] += _cis(np.outer(t[rows], x)).sum(axis=1)
    else:
        k = np.arange(t.size)
        # twice the index at which the progression crosses zero, to the nearest
        # integer; -1 when dt = 0, where there is no crossing
        twice_zero = round(-2.0 * (t[0] / dt)) if dt else -1
        if (0 <= twice_zero <= 2 * (t.size - 1)
                and abs(t[0] + 0.5 * twice_zero * dt) <= _GRID_ULPS * t_max):
            # |t_k| = |dt| * |2k - twice_zero| / 2, smallest |dt|/2 or 0
            index = np.abs(2 * k - twice_zero) // 2
            t0, dt, negative = 0.5 * abs(dt) * (twice_zero % 2), abs(dt), t < 0
        else:
            index, t0, negative = k, t[0], False
        count = int(index.max()) + 1
        baby = min(math.isqrt(count - 1) + 1, _ECF_FACTOR)
        giant = -(-count // baby)
        scaled = np.empty(_ECF_BLOCK)
        q = np.empty((baby + 1, _ECF_BLOCK), dtype=complex)   # z^b for b <= B
        q[0] = 1.0
        # a group of w0 z^(B*a)
        p = np.empty((min(giant, _ECF_FACTOR), _ECF_BLOCK), dtype=complex)
        group = len(p)
        sums = np.empty((giant, baby), dtype=complex)

        def add_piece(x: np.ndarray) -> None:
            sums.fill(0.0)
            for lo in range(0, x.size, _ECF_BLOCK):
                block = x[lo : lo + _ECF_BLOCK]
                y, qb, pb = scaled[: block.size], q[:, : block.size], p[:, : block.size]
                _cis(np.multiply(block, dt, out=y), out=qb[1])
                for b in range(2, baby + 1):
                    np.multiply(qb[b - 1], qb[1], out=qb[b])
                if t0 == 0:
                    pb[0] = 1.0
                else:
                    _cis(np.multiply(block, t0, out=y), out=pb[0])
                for a0 in range(0, giant, group):
                    rows = min(group, giant - a0)
                    if a0:   # the row after the last of the previous group
                        np.multiply(pb[-1], qb[baby], out=pb[0])
                    for a in range(1, rows):
                        np.multiply(pb[a - 1], qb[baby], out=pb[a])
                    sums[a0 : a0 + rows] += pb[:rows] @ qb[:baby].T
            out = sums.ravel()[index]
            np.conjugate(out, out=out, where=negative)
            total[:] += out

    def add(x: np.ndarray) -> None:
        if not math.isfinite(t_max * float(np.abs(x).max(initial=0.0))):
            raise ValueError("t*x overflows: max|t| * max|samples| is not finite")
        for start in range(0, x.size, _ECF_CHUNK):
            add_piece(x[start : start + _ECF_CHUNK])

    return add, total


def empirical_char_fn(samples, t):
    """Sample mean of exp(i*t*X) at scalar or array ``t``, of ``t``'s shape.

    The draws are summed by one :func:`_ecf_kernel`, whose workspace stays
    within a few MB on every grid.  On an arithmetic grid each draw costs
    one or two exponentials and, for the K distinct |t| of the grid, about
    2*sqrt(K) complex multiplies up to K = 256 and K/16 beyond, besides its
    share of one small matrix product per block of 4096 draws.
    """
    x = _as_samples(samples, "samples")
    t = _as_finite(t, "t")
    add, sums = _ecf_kernel(t.ravel())
    add(x)
    out = (sums / x.size).reshape(t.shape)
    if t.ndim == 0:
        return complex(out)
    return out


@dataclass
class VerificationReport:
    """Outcome of one campaign, serializable byte-for-byte reproducibly."""

    test_name: str
    seed: int
    n: int
    reps: int
    statistic: float
    threshold: float
    direction: str
    passed: bool
    config: dict
    details: dict
    negative_control: dict
    artifacts: list

    @property
    def campaign_passed(self) -> bool:
        """True when the declared null passed AND the mis-specified null was
        rejected; a campaign that cannot reject anything proves nothing."""
        return self.passed and not self.negative_control.get("passed", False)

    def to_json(self) -> str:
        return _json(asdict(self))


def _plain(obj):
    """Recursively strip numpy scalar/array types so json stays canonical."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def _report(test_name, seed, n, reps, statistic, threshold, config, details,
            control_name, control_statistic) -> VerificationReport:
    """A statistic, and its control's, passes when it is at most ``threshold``;
    ``config`` is recorded after the campaign's name."""
    statistic = float(statistic)
    threshold = float(threshold)
    c_stat = float(control_statistic)
    control = {"name": control_name, "statistic": c_stat, "threshold": threshold,
               "direction": "leq", "passed": c_stat <= threshold}
    return VerificationReport(
        test_name=test_name, seed=int(seed), n=int(n), reps=int(reps),
        statistic=statistic, threshold=threshold, direction="leq",
        passed=statistic <= threshold, config=_plain({"campaign": test_name, **config}),
        details=_plain(details), negative_control=control, artifacts=[])


def _half_dispersion(law: StableParams) -> StableParams:
    """The negative control's null: ``law`` at half its dispersion."""
    return replace(law, dispersion=law.dispersion / 2.0)


def _marginal_fits(stats: np.ndarray, laws) -> list:
    """For each column of the (reps x times) matrix ``stats``: the KS
    statistic and p-value against its law, and the KS statistic against
    that law at half dispersion.

    Each statistic takes at most two ``cdf`` calls (:func:`_ks_sup`): one
    at every 16th order statistic and the last, one at the runs between
    them where the supremum can still fall.  Every value is bit for bit the
    one :func:`ks_one_sample` gives from the CDF at every order statistic.
    ``cdf`` is read from this module's namespace at each call, where the
    benchmark's tracer (bench/spans.py) wraps it.
    """
    fits = []
    for column, law in zip(stats.T, laws):
        xs = np.sort(_as_samples(column, "samples"))
        stat = _ks_sup(xs, partial(cdf, law))
        control = _ks_sup(xs, partial(cdf, _half_dispersion(law)))
        fits.append((stat, _ks_pvalue(stat, math.sqrt(xs.size)), control))
    return fits


def _spec_dict(spec: DoaSpec) -> dict:
    return {"family": repr(spec), "known_mu": spec.known_mu, "known_alpha": spec.known_alpha,
            "known_beta": spec.known_beta, "positivity": spec.positivity}


# Rows that _write_csv formats and writes at a time
_CSV_BLOCK = 4096


@contextmanager
def _open(out_dir, name: str):
    """``out_dir/name`` opened for text, making ``out_dir`` at the first
    write, so a run that stops at a check leaves no directory behind.  The
    text goes to a temporary name in ``out_dir``, which is moved to ``name``
    once the file has closed cleanly, so a file under its final name is
    whole.  On any error the temporary file is removed, and an ``OSError`` is
    raised again as one that names ``name``."""
    os.makedirs(out_dir, exist_ok=True)
    part = os.path.join(out_dir, f".{name}.part")
    try:
        with open(part, "w", newline="\n") as fh:
            yield fh
        os.replace(part, os.path.join(out_dir, name))
    except BaseException as exc:
        with suppress(OSError):
            os.remove(part)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {name}: {exc}") from None
        raise


def _write(out_dir, name: str, text: str) -> str:
    """Write ``text`` to ``out_dir/name``."""
    with _open(out_dir, name) as fh:
        fh.write(text)
    return name


def _write_csv(out_dir, name: str, header: str, *columns) -> str:
    """Write ``columns`` side by side under ``header``, ``_CSV_BLOCK`` rows
    at a time, down to the shortest column.  A float column is written as
    the repr of each value, which reads back exactly; any other column with
    ``str``.  Each block is formatted by one ``%`` call on a row template
    repeated once per row (``%r`` is repr and ``%s`` is str, so the bytes are
    those of formatting cell by cell), with the block's cells interleaved row
    by row in one flat list."""
    columns = [np.asarray(column) for column in columns]
    width = len(columns)
    row = ",".join("%r" if column.dtype.kind == "f" else "%s" for column in columns) + "\n"
    rows = min(len(column) for column in columns)
    with _open(out_dir, name) as fh:
        fh.write(header + "\n")
        for lo in range(0, rows, _CSV_BLOCK):
            size = min(_CSV_BLOCK, rows - lo)
            cells = [None] * (size * width)
            for i, column in enumerate(columns):
                cells[i::width] = column[lo:lo + size].tolist()
            fh.write(row * size % tuple(cells))
    return name


def _json(obj) -> str:
    """The JSON text of every report and artifact: plain types, indent 2; an
    inf or nan is refused with a ``ValueError``, as JSON has neither."""
    return json.dumps(_plain(obj), indent=2, allow_nan=False) + "\n"


def _write_marginals(out_dir, times, stats: np.ndarray, laws) -> list:
    """``statistics.csv`` (rep,t,value; the (reps x times) matrix ``stats``
    row by row) and ``limit_laws.json`` (the law of each time, keyed repr(t))."""
    t_arr = np.asarray(times, dtype=float)
    reps = stats.shape[0]
    return [
        _write_csv(out_dir, "statistics.csv", "rep,t,value", np.repeat(np.arange(reps), t_arr.size),
                   np.tile(t_arr, reps), stats.ravel()),
        _write(out_dir, "limit_laws.json",
               _json({repr(t): asdict(law) for t, law in zip(t_arr.tolist(), laws)})),
    ]


# A frequency grid holds at most this many points, about 1000 times the
# default 101; a larger grid is a mistyped --t-step, not a test.
_MAX_T_POINTS = 10**5
# verify_sampler draws at most this many variates, 1000 times the command
# line's default 10**6.  It draws in chunks, so no allocation refuses more,
# and a larger n would run for hours.
_MAX_SAMPLER_N = 10**9


def _frequency_grid(t_min: float = -5.0, t_max: float = 5.0, t_step: float = 0.1) -> np.ndarray:
    """t_min + t_step*k for k = 0, 1, ... up to the last point not above t_max,
    give or take 8 ulps of max|t| of rounding.  With its defaults it is
    -5 + 0.1*k for k = 0..100, the default grid of :func:`verify_sampler`
    and of the command line's ``--t-min``, ``--t-max`` and ``--t-step``.
    A span t_max - t_min that overflows is refused, as the steps cannot be
    counted from it, and so is a grid of 10**5 points or more."""
    _check_real(t_min, "t_min")
    _check_real(t_max, "t_max")
    _check_real(t_step, "t_step", 0.0)
    if not t_min < t_max:
        raise ValueError("need --t-min < --t-max")
    # Python floats overflow to inf without a warning
    if not math.isfinite(float(t_max) - float(t_min)):
        raise ValueError(f"--t-max - --t-min overflows: the frequencies from {t_min!r} to "
                         f"{t_max!r} span more than the largest float")
    slack = 8 * math.ulp(max(abs(t_min), abs(t_max)))
    steps = (t_max - t_min) / t_step + slack / t_step   # span + slack may overflow
    if not steps < _MAX_T_POINTS:
        raise ValueError(f"--t-step {t_step!r} gives {steps + 1:.4g} frequencies "
                         f"from --t-min to --t-max, more than {_MAX_T_POINTS}")
    return t_min + t_step * np.arange(math.floor(steps) + 1)


def verify_sampler(params: StableParams, n: int, seed, t_grid=None,
                   threshold: float = 5e-3, out_dir=None) -> VerificationReport:
    """Characteristic-function fidelity of the exact sampler.

    Draws n variates, at most 10**9, and compares their empirical
    characteristic function with the analytic one on a grid of frequencies,
    in sup norm.  The default grid is :func:`_frequency_grid`'s, -5 + 0.1*k
    for k = 0..100, which the command line builds too.  It draws in chunks
    of 2**14 and adds each to the sums of one :func:`_ecf_kernel`, so memory
    stays of the order of a few chunks on every grid.  The chunks are drawn
    on the calling thread; where the CPU mask holds two CPUs they are added
    on the worker thread of :func:`~stablesums.rng._pipeline` while the next
    ones are drawn, in chunk order, so the sums have the same bits either way.
    On the default grid the sums cost one exponential and 13 complex
    multiplies per draw and one 7 x 8 matrix product per 4096 draws, as each
    negative t takes the conjugate of its mirror.  The control re-tests the
    same draws against the law with doubled dispersion, so a dispersion
    whose double overflows is refused.
    """
    n = _check_count(n, "n", 1)
    _check_real(n, "n", 1, _MAX_SAMPLER_N, "[]")
    _check_real(threshold, "threshold", 0.0)
    grid = _frequency_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("t_grid must be a nonempty finite 1-d array")
    if not math.isfinite(2.0 * params.dispersion):
        raise ValueError(f"dispersion {params.dispersion!r} is too large: the control's "
                         f"doubled dispersion overflows")
    wrong = replace(params, dispersion=2.0 * params.dispersion)

    rng = stream(seed, _SIM)
    add_draws, sums = _ecf_kernel(grid)
    head = None

    def drawn():
        nonlocal head
        for start in range(0, n, _ECF_CHUNK):
            chunk = sample(params, rng, min(_ECF_CHUNK, n - start))
            if head is None:
                head = chunk[:5000]
            yield start, chunk

    _pipeline(drawn(), lambda _, chunk: add_draws(chunk))
    ecf_vals = sums / n

    cf_vals = char_fn(params, grid)
    gaps = np.abs(ecf_vals - cf_vals)
    stat = float(gaps.max())
    # Both the ECF of real draws and char_fn are conjugate-symmetric, so the
    # gap is even in t and its maximum ties at +-t; rounding would pick the
    # sign.  Report the largest t among the gaps tied with the maximum.
    tied = gaps >= stat * (1.0 - 1e-12)
    control_stat = float(np.abs(ecf_vals - char_fn(wrong, grid)).max())

    config = {
        "params": asdict(params),
        "n": n,
        "t_min": float(grid.min()),
        "t_max": float(grid.max()),
        "t_count": int(grid.size),
        "threshold": float(threshold),
    }
    details = {
        "worst_t": float(grid[tied].max()),
        "sampled_law": asdict(params),
        "control_law": asdict(wrong),
    }
    report = _report("verify-sampler", seed, n, 1, stat, threshold, config, details,
                     "char fn with doubled dispersion", control_stat)
    if out_dir is not None:
        report.artifacts = [
            _write_csv(out_dir, "charfn_fit.csv", "t,ecf_re,ecf_im,cf_re,cf_im",
                       grid, ecf_vals.real, ecf_vals.imag, cf_vals.real, cf_vals.imag),
            _write_csv(out_dir, "samples.csv", "value", head),
            _write(out_dir, "limit_laws.json", _json({"sampled": asdict(params)})),
        ]
    return report


def verify_remark(alpha: float, beta: float, reps: int, grid: int, seed,
                  t: float = 1.0, eps: Optional[float] = None,
                  threshold: float = 0.04, out_dir=None) -> VerificationReport:
    """Distributional identity of the truncated path integral.

    Simulates ``reps`` stable Levy paths, forms the right-endpoint Riemann sum
    of L(x)/x over (eps, t], and KS-compares those values against ``reps``
    direct draws of the predicted law (dispersion gamma(alpha+1) * t).  The
    control compares against draws with half that dispersion, e.g. N(0,1)
    instead of N(0,2) at alpha = 2.

    Replicate r is integral_riemann(simulate_levy_path(alpha, beta, s, grid),
    t, eps) on its stream s, bit for bit, computed without building the path
    object: one ``sample`` call of ``grid`` increments, then their partial
    sums and the Riemann sum, in buffers built once.
    """
    reps = _check_reps(reps, 2)
    _check_real(threshold, "threshold", 0.0)
    law = limit_law(alpha, beta, t, 1.0)
    grid = _check_count(grid, "grid", 1)
    increment_law = _increment_law(alpha, beta, grid)
    with _sized_by(f"grid = {grid}"):
        integral, eps = _riemann_kernel(np.arange(grid + 1) / grid, t, eps)
        path = np.empty(grid + 1)

    def path_integral(increments):
        return integral(_partial_sums(increments, path))

    integrals = _replicates(seed, (_SIM,), reps, lambda rng: sample(increment_law, rng, grid),
                            path_integral)
    direct = sample(law, stream(seed, _NULL), reps)
    stat, p = ks_two_sample(integrals[:, 0], direct)

    wrong_law = _half_dispersion(law)
    wrong = sample(wrong_law, stream(seed, _CONTROL), reps)
    control_stat, _ = ks_two_sample(integrals[:, 0], wrong)

    config = {
        "alpha": float(alpha),
        "beta": float(beta),
        "reps": reps,
        "grid": grid,
        "t": float(t),
        "eps": eps,
        "threshold": float(threshold),
    }
    details = {
        "p_value": float(p),
        "limit_law": asdict(law),
        "control_law": asdict(wrong_law),
    }
    report = _report("verify-remark", seed, grid, reps, stat, threshold, config,
                     details, "direct draws at half dispersion", control_stat)
    if out_dir is not None:
        statistics, laws = _write_marginals(out_dir, [t], integrals, [law])
        report.artifacts = [
            statistics,
            _write_csv(out_dir, "draws.csv", "rep,value", np.arange(reps), direct),
            laws,
        ]
    return report


def verify_fclt(spec: DoaSpec, n: int, grid: int, times: Sequence[float], reps: int,
                seed, threshold: float = 0.04, out_dir=None) -> VerificationReport:
    """Marginals of the functional statistic against their limit laws.

    The transform is qi_log(spec.known_mu), f(x) = mu * log(x / mu), so the
    spec must guarantee positive draws, as for :func:`verify_product`; the
    limit constants mu, alpha, beta and f'(mu) all come from ``spec``.
    Each requested time t must lie within 1e-9 of a grid time j/grid,
    j = round(t * grid), and is replaced by it: the times must be distinct
    grid times, and the read, the law and the report keys all use j/grid.
    Replicate r's value at t is
    functional_statistic(x, fn, mu, a_n, grid).at(j/grid) on its draws x, bit
    for bit, though only the cuts n*j//grid are summed: the shared kernel
    sums in fixed blocks, so a value depends on its cut alone.  The values across
    replicates are KS-tested one-sample against the CDF of
    limit_law(alpha, beta, t, f'(mu)), which :func:`_marginal_fits` evaluates
    only at the order statistics where the supremum can fall, with the same
    bits as at every one.  The reported statistic is the worst
    marginal; the control is the best marginal against half-dispersion nulls,
    so "fail" means even the easiest marginal rejected the wrong law.
    """
    if not spec.positivity:
        raise ValueError("verify_fclt needs a spec with positivity=True")
    n = _check_count(n, "n", 1)
    m = _check_count(grid, "grid", 1)
    reps = _check_reps(reps, 2)
    _check_real(threshold, "threshold", 0.0)
    times = list(times)
    if not times:
        raise ValueError("need at least one time")
    steps = []
    for t in times:
        _check_real(t, "time", 0.0, 1.0, "(]")
        j = round(t * m)
        if abs(t * m - j) > 1e-9:
            raise ValueError(f"time {t} is not on the grid with {m} cells")
        if n * j // m < 1:
            raise ValueError(f"time {t} cuts an empty partial sum at n={n}")
        steps.append(j)
    if len(set(steps)) != len(steps):
        raise ValueError(f"times must be distinct grid times with {m} cells, got {times}")
    times = [j / m for j in steps]
    cuts = [n * j // m for j in steps]

    fn = qi_log(spec.known_mu)
    with _sized_by(f"n = {n}"):
        statistic = _functional_kernel(fn, spec.known_mu, float(spec.a(n)), n, np.array(cuts))
    stats = _replicates(seed, (_SIM,), reps, lambda rng: sample_doa(spec, rng, n), statistic,
                        len(times))

    laws = [limit_law(spec.known_alpha, spec.known_beta, t, fn.f_prime_at_mu)
            for t in times]
    per_time, per_time_p, control_per_time = zip(*_marginal_fits(stats, laws))

    worst = int(np.argmax(per_time))
    stat = float(per_time[worst])
    control_stat = float(min(control_per_time))

    cfg = {
        "spec": _spec_dict(spec),
        "fn": fn.name,
        "f_prime_at_mu": float(fn.f_prime_at_mu),
        "n": int(n),
        "grid": int(m),
        "times": times,
        "reps": reps,
        "threshold": float(threshold),
    }
    details = {
        "per_time": {repr(t): {"statistic": float(s), "p_value": float(p)}
                     for t, s, p in zip(times, per_time, per_time_p)},
        "worst_time": times[worst],
        "limits": {repr(t): asdict(law) for t, law in zip(times, laws)},
    }
    report = _report("verify-fclt", seed, n, reps, stat, threshold, cfg, details,
                     "half-dispersion null, best marginal", control_stat)
    if out_dir is not None:
        report.artifacts = _write_marginals(out_dir, times, stats, laws)
    return report


def verify_product(spec: DoaSpec, n: int, reps: int, seed,
                   threshold: float = 0.07, out_dir=None) -> VerificationReport:
    """Log products of partial-sum ratios against their stable limit.

    Each replicate draws n variates, forms log of (prod S_k/(k*mu)) to the
    exponent mu/a_n (log_product_statistic, bit for bit, with log(k*mu) built
    once), and the sample of logs is KS-tested against the law with
    dispersion gamma(alpha+1) (skewness beta = 1 for positive heavy-tailed
    inputs, inert at alpha = 2).  :func:`_marginal_fits` evaluates that
    law's CDF only at the order statistics where the supremum can fall,
    with the same bits as at every one.  Requires a positivity guarantee,
    and refuses an n for which b_n = n*mu overflows.
    """
    if not spec.positivity:
        raise ValueError("verify_product needs a spec with positivity=True")
    reps = _check_reps(reps, 2)
    n = _check_count(n, "n", 1)
    _check_real(threshold, "threshold", 0.0)
    a_n, mu = float(spec.a(n)), spec.known_mu
    spec.b(n)   # refuses an n*mu that overflows, and so any k*mu of the kernel
    exponent = mu / a_n
    with _sized_by(f"n = {n}"):
        statistic = _log_product_kernel(mu, exponent, n)
    logs = _replicates(seed, (_SIM,), reps, lambda rng: sample_doa(spec, rng, n), statistic)

    law = limit_law(spec.known_alpha, spec.known_beta, 1.0, 1.0)
    [(stat, p, control_stat)] = _marginal_fits(logs, [law])

    cfg = {
        "spec": _spec_dict(spec),
        "n": n,
        "reps": reps,
        "exponent": float(exponent),
        "threshold": float(threshold),
    }
    details = {
        "p_value": float(p),
        "limit_law": asdict(law),
        "control_law": asdict(_half_dispersion(law)),
    }
    report = _report("verify-product", seed, n, reps, stat, threshold, cfg, details,
                     "half-dispersion null", control_stat)
    if out_dir is not None:
        report.artifacts = _write_marginals(out_dir, [1.0], logs, [law])
    return report


def verify_lemma(spec: DoaSpec, ns: Sequence[int], reps: int, seed,
                 band: float = 2.0, trend_tol: float = 0.25,
                 out_dir=None) -> VerificationReport:
    """Boundedness of sum_{k<=n} E|S_k - k*mu| / k relative to a_n.

    Estimates the sum per replicate (so Monte Carlo error is quantified by
    honest replicate-to-replicate spread; one draw call and one in-place pass
    over the partial sums each), divides by a_n = spec.a(n),
    and checks two things across the requested n's: every ratio within
    ``band`` (> 1) of the largest-n ratio, and growth over the top step at
    most 1 + trend_tol (trend_tol > 0).  Statistic = max(spread/band,
    growth/(1+trend_tol)), threshold 1.  The control rescales the same sums
    by a_n/log(n), which a genuinely bounded ratio must reject.  Deviation
    sums, or their mean, that overflow raise ``ValueError``; their standard
    error is taken at a power-of-two scale where their squares overflow.
    """
    reps = _check_reps(reps, 2)
    ns = [_check_count(v, "ns", 2) for v in ns]
    if len(ns) < 2 or sorted(set(ns)) != ns:
        raise ValueError("ns must be >= 2 distinct increasing integers")
    _check_real(band, "band", 1.0)
    _check_real(trend_tol, "trend_tol", 0.0)
    n_arr = np.array(ns)
    a_vals, b_vals = spec.a(n_arr), spec.b(n_arr)
    mu, nmax = spec.known_mu, ns[-1]
    with _sized_by(f"ns up to {nmax}"):
        k = np.arange(1, nmax + 1, dtype=float)
        sums = np.empty(nmax + 1)
    deviations = sums[1:]

    def deviation_sums(x):
        x -= mu   # centered draws: a point mass sums to exactly zero
        _partial_sums(x, sums)
        np.abs(deviations, out=deviations)
        np.divide(deviations, k, out=deviations)
        return _partial_sums(deviations, sums, "deviation sums")[n_arr]

    q = _replicates(seed, (_SIM,), reps, lambda rng: sample_doa(spec, rng, nmax),
                    deviation_sums, len(ns))

    def _band_stat(ratios: np.ndarray) -> float:
        if np.all(ratios == 0.0):
            return max(1.0 / band, 1.0 / (1.0 + trend_tol))
        if np.any(ratios == 0.0):
            return 1e300
        spread = float(max((ratios / ratios[-1]).max(), (ratios[-1] / ratios).max()))
        growth = float(ratios[-1] / ratios[-2])
        return max(spread / band, growth / (1.0 + trend_tol))

    with np.errstate(all="ignore"):   # checked below
        means = q.mean(axis=0)
    stderr = _standard_error(q)
    if not np.isfinite([means, stderr]).all():
        raise ValueError("the mean or standard error of the deviation sums overflows")
    ratios = means / a_vals
    ratio_se = stderr / a_vals
    stat = _band_stat(ratios)
    control_ratios = ratios * np.log(n_arr)
    control_stat = _band_stat(control_ratios)

    cfg = {
        "spec": _spec_dict(spec),
        "ns": ns,
        "reps": reps,
        "band": float(band),
        "trend_tol": float(trend_tol),
    }
    ci_low, ci_high = ratios - 1.96 * ratio_se, ratios + 1.96 * ratio_se
    details = {
        "ratios": ratios,
        "ratio_stderr": ratio_se,
        "ci95_low": ci_low,
        "ci95_high": ci_high,
        "a_n": a_vals,
        "control_ratios": control_ratios,
    }
    report = _report("verify-lemma", seed, nmax, reps, stat, 1.0, cfg, details,
                     "scaling deflated by log(n)", control_stat)
    if out_dir is not None:
        report.artifacts = [
            _write_csv(out_dir, "ratios.csv", "n,ratio,stderr,ci_low,ci_high",
                       n_arr, ratios, ratio_se, ci_low, ci_high),
            _write_csv(out_dir, "norming.csv", "n,a_n,b_n", n_arr, a_vals, b_vals),
        ]
    return report
