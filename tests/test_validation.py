"""The one check every real-valued library input goes through, seen through
representative public callers."""

import math

import numpy as np
import pytest

from stablesums import (
    Exponential,
    Pareto,
    StableParams,
    limit_law,
    tail_dispersion,
    verify_lemma,
)

# caller: (call taking the value, parameter name, interval as the error names it)
CALLERS = {
    "StableParams.alpha": (lambda v: StableParams(v, 0.0), "alpha", "(0, 2]"),
    "StableParams.beta": (lambda v: StableParams(1.5, v), "beta", "[-1, 1]"),
    "StableParams.dispersion": (lambda v: StableParams(1.5, 0.0, v), "dispersion",
                                "(0, inf)"),
    "StableParams.location": (lambda v: StableParams(1.5, 0.0, 1.0, v), "location",
                              "(-inf, inf)"),
    "limit_law.alpha": (lambda v: limit_law(v, 0.0, 1.0, 1.0), "alpha", "(1, 2]"),
    "limit_law.t": (lambda v: limit_law(1.5, 0.0, v, 1.0), "t", "(0, 1]"),
    "pareto.tail_index": (lambda v: Pareto(v), "tail_index", "(1, inf)"),
    "pareto.x_min": (lambda v: Pareto(1.5, v), "x_min", "(0, inf)"),
    "tail_dispersion.alpha": (lambda v: tail_dispersion(v, 1.0, 0.0), "alpha", "(1, 2)"),
    "tail_dispersion.c_plus": (lambda v: tail_dispersion(1.5, v, 1.0), "c_plus",
                               "[0, inf)"),
    "verify_lemma.band": (lambda v: verify_lemma(Exponential(1.0), [2, 4], 2, 1, band=v),
                          "band", "(1, inf)"),
}


def _cases():
    """(caller, value, accepted): bools, NaN and +-inf everywhere, and the
    values just inside and just outside each finite end."""
    cases = []
    for caller, (_, _, interval) in CALLERS.items():
        cases += [(caller, v, False) for v in (True, np.True_, math.nan, math.inf, -math.inf)]
        low, high = (float(v) for v in interval[1:-1].split(","))
        for end, inward, outward, closed in ((low, high, -math.inf, interval[0] == "["),
                                             (high, low, math.inf, interval[-1] == "]")):
            if math.isinf(end):
                continue
            cases.append((caller, float(np.nextafter(end, inward)), True))
            cases.append((caller, end, closed))
            if closed:
                cases.append((caller, float(np.nextafter(end, outward)), False))
    return cases


@pytest.mark.parametrize("caller, value, accepted", _cases(),
                         ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_one_check_for_real_inputs(caller, value, accepted):
    call, name, interval = CALLERS[caller]
    if accepted:
        call(value)
        return
    with pytest.raises(ValueError) as refused:
        call(value)
    shown = value.item() if isinstance(value, np.generic) else value
    assert str(refused.value) == f"{name} must be in {interval}, got {shown!r}"
