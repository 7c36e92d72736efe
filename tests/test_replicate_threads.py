"""The replicate loop with its rows on a worker thread.

``rng._replicates`` draws each replicate on the calling thread and, where two
cores are usable, computes its row on one worker thread meanwhile.  The
private ``_THREADS`` picks 1 (inline) or 2 (the worker), so every check here
runs at both counts: the same bytes from every campaign, the error of the
lowest replicate, the floating-point policy of the caller in the rows, and
no thread left running.
"""

import sys
import threading
import time

import numpy as np
import pytest

from stablesums import Exponential, Pareto, mean_abs_deviation, rng
from stablesums.cli import main

# campaign argument lists at tiny scale; reps and n are large enough that
# the draws fill several batches when a batch is one draw
_CAMPAIGNS = {
    "verify-remark": ["--alpha", "1.5", "--beta", "1", "--reps", "30", "--grid", "64"],
    "verify-fclt": ["--n", "200", "--grid", "8", "--times", "0.5,1", "--reps", "30"],
    "verify-product": ["--tail-index", "1.5", "--n", "200", "--reps", "30"],
    "verify-lemma": ["--family", "pareto", "--tail-index", "1.5", "--ns", "10,100",
                     "--reps", "12"],
}

# (threads, batch bytes): inline, the default hand-off, and one draw a batch
_LOOPS = [(1, rng._BATCH_BYTES), (2, rng._BATCH_BYTES), (2, 1)]


@pytest.fixture
def loop(monkeypatch, request):
    threads, batch = request.param
    monkeypatch.setattr(rng, "_THREADS", threads)
    monkeypatch.setattr(rng, "_BATCH_BYTES", batch)
    return request.param


def _written(tmp_path, campaign, name):
    out = tmp_path / name
    code = main([campaign, *_CAMPAIGNS[campaign], "--seed", "5", "--out-dir", str(out)])
    files = {p.name: p.read_bytes().replace(str(out).encode(), b"OUT")
             for p in sorted(out.iterdir())}
    return code, files


@pytest.mark.parametrize("campaign", sorted(_CAMPAIGNS))
def test_campaign_bytes_do_not_depend_on_the_thread_count(tmp_path, monkeypatch, campaign):
    runs = []
    for threads, batch in _LOOPS:
        monkeypatch.setattr(rng, "_THREADS", threads)
        monkeypatch.setattr(rng, "_BATCH_BYTES", batch)
        runs.append(_written(tmp_path, campaign, f"{threads}-{batch}"))
    assert runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_mean_abs_deviation_does_not_depend_on_the_thread_count(monkeypatch):
    got = []
    for threads, batch in _LOOPS:
        monkeypatch.setattr(rng, "_THREADS", threads)
        monkeypatch.setattr(rng, "_BATCH_BYTES", batch)
        got.append(mean_abs_deviation(Pareto(1.5), 50, 40, 9))
    assert got[1] == got[0] and got[2] == got[0]


def test_rows_keep_their_bits_under_a_short_switch_interval(monkeypatch):
    # the two threads trade the interpreter lock as often as it can be traded,
    # with one draw a batch, so every hand-off and wait in the queue happens
    def draw(gen):
        return gen.standard_normal(64)

    monkeypatch.setattr(rng, "_THREADS", 1)
    want = rng._replicates(2, (1,), 3000, draw, np.cumsum, 64)
    monkeypatch.setattr(rng, "_THREADS", 2)
    monkeypatch.setattr(rng, "_BATCH_BYTES", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = rng._replicates(2, (1,), 3000, draw, np.cumsum, 64)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


def _failing_loop(draw_fails=None, row_fails=(), reps=12, seen=None):
    """_replicates over ``reps`` replicates whose draw raises at replicate
    ``draw_fails`` and whose row raises at each replicate of ``row_fails``;
    ``seen`` collects the replicates whose rows ran."""
    drawn = []

    def draw(gen):
        r = len(drawn)
        drawn.append(r)
        if r == draw_fails:
            raise ValueError(f"draw {r}")
        return np.full(4, float(r))

    def row(x):
        r = int(x[0])
        if seen is not None:
            seen.append(r)
        if r in row_fails:
            time.sleep(0.02)   # the next draws, and a draw error, come first
            raise ValueError(f"row {r}")
        return x.sum()

    return rng._replicates(3, (0,), reps, draw, row)


@pytest.mark.parametrize("loop", _LOOPS, indirect=True)
@pytest.mark.parametrize("draw_fails, row_fails, message", [
    (None, (3, 6), "row 3"),
    (5, (3,), "row 3"),
    (5, (7,), "draw 5"),
    (2, (4,), "draw 2"),
    (0, (), "draw 0"),
])
def test_the_error_is_the_lowest_replicates(loop, draw_fails, row_fails, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _failing_loop(draw_fails, row_fails)


@pytest.mark.parametrize("loop", _LOOPS, indirect=True)
def test_a_draw_error_waits_for_the_rows_already_drawn(loop):
    seen = []
    with pytest.raises(ValueError, match="^draw 9$"):
        _failing_loop(9, (), seen=seen)
    assert seen == list(range(9))


@pytest.mark.parametrize("loop", _LOOPS, indirect=True)
def test_rows_hold_the_callers_floating_point_policy(loop):
    def draw(gen):
        return gen.random(2) + 2.0

    def row(x):
        return np.float64(1e308) * x[0]

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            rng._replicates(3, (), 5, draw, row)
    # a warning would be an error under this suite's filters
    with np.errstate(over="ignore"):
        assert np.isinf(rng._replicates(3, (), 5, draw, row)).all()


@pytest.mark.parametrize("loop", _LOOPS, indirect=True)
def test_mean_abs_deviation_ignores_overflow_in_its_rows(loop):
    # the sums overflow in the rows; the refusal comes after the loop
    with np.errstate(over="raise"):
        with pytest.raises(ValueError, match="is not finite"):
            mean_abs_deviation(Exponential(1e-308), 10, 8, 1)


@pytest.mark.parametrize("loop", _LOOPS, indirect=True)
def test_no_thread_outlives_the_loop(loop):
    before = threading.active_count()
    assert _failing_loop().shape == (12, 1)
    assert threading.active_count() == before
    for draw_fails, row_fails in [(None, (2,)), (7, ())]:
        with pytest.raises(ValueError):
            _failing_loop(draw_fails, row_fails)
        assert threading.active_count() == before

    def interrupted(gen):
        if gen.random() < 0.2:
            raise KeyboardInterrupt
        return gen.random(3)

    with pytest.raises(KeyboardInterrupt):
        rng._replicates(3, (0,), 100, interrupted, np.sum)
    assert threading.active_count() == before
