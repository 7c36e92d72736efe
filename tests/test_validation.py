"""The one check every real-valued library input goes through, seen through
representative public callers; the check of seeds, stream path components and
replicate counts; and the refusal of a derived constant that overflows."""

import math

import numpy as np
import pytest

from stablesums import (
    Exponential,
    Pareto,
    StableParams,
    limit_law,
    sample,
    tail_dispersion,
    verify_lemma,
)
from stablesums.rng import MAX_SEED, _replicates, stream
from stablesums.stable import scale_shift

# caller: (call taking the value, parameter name, interval as the error names it)
CALLERS = {
    "StableParams.alpha": (lambda v: StableParams(v, 0.0), "alpha", "[0.05, 2]"),
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


def _unreached(_):
    raise AssertionError("a replicate was drawn")


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


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer >= 0, got True"),
    (np.True_, "seed must be an integer >= 0, got np.True_"),
    (1.0, "seed must be an integer >= 0, got 1.0"),
    ("1", "seed must be an integer >= 0, got '1'"),
    (-1, "seed must be an integer >= 0, got -1"),
    (MAX_SEED + 1, f"seed must be in [0, 2**64), got {MAX_SEED + 1}"),
])
def test_seeds_are_counts(seed, message):
    with pytest.raises(ValueError) as refused:
        stream(seed)
    assert str(refused.value) == message


def test_seed_range_ends_are_accepted():
    for seed in (0, np.uint64(0), MAX_SEED, np.uint64(MAX_SEED)):
        stream(seed)


@pytest.mark.parametrize("component", [1.5, True, np.True_, -1, "1", None])
def test_stream_path_components_are_counts(component):
    shown = repr(component)
    for call in (lambda: stream(3, component), lambda: stream(3, 0, component),
                 lambda: _replicates(3, (component,), 2, _unreached, _unreached)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == f"stream path component must be an integer >= 0, got {shown}"


@pytest.mark.parametrize("component", [2**32, np.uint64(2**32), 2**70])
def test_stream_path_components_are_single_words(component):
    message = f"stream path component must be in [0, 2**32), got {int(component)}"
    for call in (lambda: stream(3, component), lambda: stream(3, 0, component),
                 lambda: _replicates(3, (component,), 2, _unreached, _unreached)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


def test_the_address_a_wide_component_aliased_keeps_its_key():
    # 2**32 would be split into the words (0, 1): the key of stream(3, 0, 1)
    key = stream(3, 0, 1).bit_generator.state["state"]["key"].tolist()
    assert key == [4871736941327603950, 14424276488584317079]


def test_stream_path_components_may_be_numpy_integers():
    assert stream(3, np.int64(1)).random(3).tolist() == stream(3, 1).random(3).tolist()


@pytest.mark.parametrize("reps, message", [
    (2**32 + 1, "reps must be in [0, 2**32], got 4294967297"),
    (-1, "reps must be an integer >= 0, got -1"),
    (True, "reps must be an integer >= 0, got True"),
    (2.0, "reps must be an integer >= 0, got 2.0"),
])
def test_replicate_counts_are_counts(reps, message):
    # refused before the (reps x 1) matrix is allocated or a row drawn
    with pytest.raises(ValueError) as refused:
        _replicates(3, (0,), reps, _unreached, _unreached)
    assert str(refused.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: Pareto(1.5, x_min=1e250), "x_min**tail_index = 1e+250**1.5 overflows"),
    (lambda: Pareto(3.0, x_min=1e200), "x_min**2 = 1e+200**2 overflows"),
    (lambda: Pareto(3.0, x_min=1e154), "scale must be in (0, inf), got inf"),
    (lambda: scale_shift(StableParams(2, 0), 1e200, 0), "c**alpha = 1e+200**2 overflows"),
    (lambda: limit_law(2, 0, 1, 1e200), "|f_prime|**alpha = 1e+200**2 overflows"),
    (lambda: sample(StableParams(0.5, 1, 1e300), 1, 10),
     "dispersion**(1/alpha) = 1e+300**2.0 overflows"),
], ids=["pareto-heavy", "pareto-light", "pareto-light-scale", "scale_shift",
        "limit_law", "sample"])
def test_overflowing_constants_are_refused(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("tail_index, x_min", [(1.5, 5e-324), (3.0, 1e-200)])
def test_pareto_scale_is_linear_in_x_min_where_its_power_underflows(tail_index, x_min):
    # x_min**tail_index (x_min**2 above index 2) underflows to 0
    assert Pareto(tail_index, x_min).scale == x_min * Pareto(tail_index).scale > 0.0
