"""Span recorder and counters installed around stablesums from outside ``src/``.

Each public function is wrapped where its caller binds it: the campaigns in
``stablesums.verification`` call ``sample``, ``cdf`` and friends through that
module's namespace, ``simulate_levy_path`` calls ``sample`` through
``stablesums.paths``, and the command line calls everything through
``stablesums.cli``.  Replacing those module attributes intercepts every call a
campaign makes without touching the package's source.

Two instruments share this file:

* :class:`VariateCounter` (untraced passes) wraps only the functions that draw
  variates, and ``cdf``; it adds up the sizes of the arrays the draws return
  and reads no clock itself.
* :class:`Tracer` (traced passes) wraps every site below, records one span per
  call (name, start, end, parent) in memory, and keeps the exact counts the
  per-layer metrics need.
"""

from __future__ import annotations

import time
from collections import Counter

# (module attribute holding the binding, attribute, layer name of the function)
SITES = [
    ("verification", "sample", "stable.sample"),
    ("verification", "cdf", "stable.cdf"),
    ("verification", "char_fn", "stable.char_fn"),
    ("verification", "stream", "rng.stream"),
    ("verification", "sample_doa", "paths.sample_doa"),
    ("verification", "simulate_levy_path", "paths.simulate_levy_path"),
    ("verification", "functional_statistic", "functionals.functional_statistic"),
    ("verification", "log_product_statistic", "functionals.log_product_statistic"),
    ("verification", "integral_riemann", "functionals.integral_riemann"),
    ("verification", "ks_one_sample", "verification.ks_one_sample"),
    ("verification", "ks_two_sample", "verification.ks_two_sample"),
    ("paths", "sample", "stable.sample"),
    ("cli", "run", "cli.run"),
    ("cli", "emit_plotdata", "cli.emit_plotdata"),
    ("cli", "verify_sampler", "verification.verify_sampler"),
    ("cli", "verify_remark", "verification.verify_remark"),
    ("cli", "verify_fclt", "verification.verify_fclt"),
    ("cli", "verify_lemma", "verification.verify_lemma"),
    ("cli", "verify_product", "verification.verify_product"),
    ("cli", "cdf", "stable.cdf"),
    ("cli", "sample", "stable.sample"),
    ("cli", "simulate_levy_path", "paths.simulate_levy_path"),
    ("cli", "stream", "rng.stream"),
]

# The benchmark's own call into the command line; its span is the root of
# every operation, so self times add up to the traced wall time.
ROOT = "cli.main"
LAYER_NAMES = sorted({name for _, _, name in SITES} | {ROOT})

# Functions whose returned array sizes are the variates a pass draws.
VARIATE_NAMES = ("stable.sample", "paths.sample_doa")

# verify_sampler evaluates exp(1j * outer(grid, chunk)) over all n draws; its
# default grid is -5..5 in steps of 0.1.
_DEFAULT_ECF_GRID = 101


def _ecf_exponentials(args, kwargs) -> int:
    n = kwargs["n"] if "n" in kwargs else args[1]
    grid = kwargs.get("t_grid", args[3] if len(args) > 3 else None)
    return int(n) * (_DEFAULT_ECF_GRID if grid is None else len(grid))


class _Patcher:
    """Replaces module attributes and puts the originals back on exit."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved = []

    def _sites(self):
        return SITES

    def _wrap(self, fn, name):
        raise NotImplementedError

    def __enter__(self):
        for mod_name, attr, name in self._sites():
            module = self._modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


class VariateCounter(_Patcher):
    """Counts variates drawn, from the sizes of the arrays returned.

    A draw nested inside another counted draw (an exact-stable family sampled
    through ``sample_doa``) is counted once, at the outermost call.  It also
    wraps ``cdf``, and calls the function given to :meth:`set_tick` after
    every wrapped call, so that a caller can sample the machine's speed inside
    the replicate and quadrature loops.
    """

    def __init__(self, modules: dict):
        super().__init__(modules)
        self.variates = 0
        self._depth = 0
        self._tick = lambda: None

    def set_tick(self, tick):
        self._tick = tick

    def _sites(self):
        return [s for s in SITES if s[2] in VARIATE_NAMES or s[2] == "stable.cdf"]

    def _wrap(self, fn, name):
        tick = self._tick
        if name not in VARIATE_NAMES:
            def ticked(*args, **kwargs):
                out = fn(*args, **kwargs)
                tick()
                return out
            return ticked

        def counted(*args, **kwargs):
            self._depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.variates += out.size
            tick()
            return out
        return counted


class Tracer(_Patcher):
    """In-memory spans plus exact counts at every wrapped boundary."""

    def __init__(self, modules: dict, quadrature_error: type):
        super().__init__(modules)
        self._quadrature_error = quadrature_error
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.variates = 0
        self._stack = []
        self._draw_depth = 0

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        draws = name in VARIATE_NAMES
        is_cdf = name == "stable.cdf"
        is_ecf = name == "verification.verify_sampler"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if draws:
                self._draw_depth += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name, start, clock(), parent)
                self._leave(draws)
                if is_cdf:
                    self.counts["stable.cdf.raised"] += 1
                    if isinstance(exc, self._quadrature_error):
                        self.counts["stable.cdf.failed"] += 1
                raise
            spans[index] = (name, start, clock(), parent)
            self._leave(draws)
            if draws:
                self.counts[name + ".variates"] += out.size
                if self._draw_depth == 0:
                    self.variates += out.size
            if is_ecf:
                self.counts["verification.ecf.cexp_computed"] += _ecf_exponentials(args, kwargs)
            return out
        return traced

    def _leave(self, draws):
        self._stack.pop()
        if draws:
            self._draw_depth -= 1

    def layer_totals(self) -> dict:
        """``<name>.calls`` and ``<name>.self_s`` for every layer name.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        out = {}
        for name in LAYER_NAMES:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        return out
