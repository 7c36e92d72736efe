"""The replicate loop with its rows on a worker thread.

``rng._pipeline`` draws on the calling thread and, where the CPU mask it
reads at each loop holds two CPUs, hands each draw to one worker thread
meanwhile: the rows of ``rng._replicates`` and the ECF sums of
``verify_sampler`` run there.  The checks fake that mask
(``bytes_manifest.loop_patches``) to run at 1 thread (inline) and at 2 (the
worker): the same bytes from every campaign, the error of the lowest
replicate, the floating-point policy of the caller in the rows, and no
thread left running.  With two CPUs in the mask the worker has one of them
for the loop and the calling thread the others.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest
from bytes_manifest import loop_patches

from stablesums import Exponential, Pareto, StableParams, mean_abs_deviation, rng, verify_sampler
from stablesums.cli import main

# campaign argument lists at tiny scale; reps and n are large enough that
# the draws fill several batches when a batch is one draw (verify-sampler
# draws 2**14 at a time)
_CAMPAIGNS = {
    "verify-sampler": ["--alpha", "1.5", "--beta", "0.5", "--n", "70000"],
    "verify-remark": ["--alpha", "1.5", "--beta", "1", "--reps", "30", "--grid", "64"],
    "verify-fclt": ["--n", "200", "--grid", "8", "--times", "0.5,1", "--reps", "30"],
    "verify-product": ["--tail-index", "1.5", "--n", "200", "--reps", "30"],
    "verify-lemma": ["--family", "pareto", "--tail-index", "1.5", "--ns", "10,100",
                     "--reps", "12"],
}

# (threads, batch bytes): inline, the default hand-off, and one draw a batch
_LOOPS = [(1, rng._BATCH_BYTES), (2, rng._BATCH_BYTES), (2, 1)]


def _set_loop(monkeypatch, threads, batch=rng._BATCH_BYTES):
    """Run the loops inline (``threads`` 1) or with the worker (2), handing
    it the draws in batches of ``batch`` bytes."""
    for obj, name, value in loop_patches(threads):
        monkeypatch.setattr(obj, name, value)
    monkeypatch.setattr(rng, "_BATCH_BYTES", batch)


@pytest.fixture
def loop(monkeypatch, request):
    _set_loop(monkeypatch, *request.param)
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
        _set_loop(monkeypatch, threads, batch)
        runs.append(_written(tmp_path, campaign, f"{threads}-{batch}"))
    assert runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_mean_abs_deviation_does_not_depend_on_the_thread_count(monkeypatch):
    got = []
    for threads, batch in _LOOPS:
        _set_loop(monkeypatch, threads, batch)
        got.append(mean_abs_deviation(Pareto(1.5), 50, 40, 9))
    assert got[1] == got[0] and got[2] == got[0]


def test_rows_keep_their_bits_under_a_short_switch_interval(monkeypatch):
    # the two threads trade the interpreter lock as often as it can be traded,
    # with one draw a batch, so every hand-off and wait in the queue happens
    def draw(gen):
        return gen.standard_normal(64)

    _set_loop(monkeypatch, 1)
    want = rng._replicates(2, (1,), 3000, draw, np.cumsum, 64)
    _set_loop(monkeypatch, 2, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = rng._replicates(2, (1,), 3000, draw, np.cumsum, 64)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


def _failing_loop(draw_fails=None, row_fails=(), reps=12, seen=None, masks=None):
    """_replicates over ``reps`` replicates whose draw raises at replicate
    ``draw_fails`` and whose row raises at each replicate of ``row_fails``;
    ``seen`` collects the replicates whose rows ran, and ``masks`` the CPU
    masks that the draws and the rows ran under."""
    drawn = []

    def draw(gen):
        r = len(drawn)
        drawn.append(r)
        if masks is not None:
            masks["draw"].add(frozenset(os.sched_getaffinity(0)))
        if r == draw_fails:
            raise ValueError(f"draw {r}")
        return np.full(4, float(r))

    def row(x):
        r = int(x[0])
        if seen is not None:
            seen.append(r)
        if masks is not None:
            masks["row"].add(frozenset(os.sched_getaffinity(0)))
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
    mask = rng._affinity()
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
    assert rng._affinity() == mask


_two_cpus = pytest.mark.skipif(len(rng._affinity()) < 2, reason="needs two usable CPUs")


@_two_cpus
@pytest.mark.parametrize("draw_fails, row_fails, message", [
    (None, (), None),
    (None, (4,), "row 4"),
    (7, (), "draw 7"),
])
def test_the_worker_has_a_cpu_of_its_own_for_the_loop(monkeypatch, draw_fails, row_fails,
                                                      message):
    _set_loop(monkeypatch, 2, 1)
    before = os.sched_getaffinity(0)
    masks = {"draw": set(), "row": set()}
    if message is None:
        _failing_loop(masks=masks)
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            _failing_loop(draw_fails, row_fails, masks=masks)
    (row,), (draw,) = masks["row"], masks["draw"]
    assert row == {max(before)}
    assert draw == before - row
    assert os.sched_getaffinity(0) == before


@_two_cpus
def test_an_interrupt_as_the_caller_takes_its_cpus_gives_its_mask_back(monkeypatch):
    _set_loop(monkeypatch, 2)
    before = os.sched_getaffinity(0)
    threads = threading.active_count()
    set_mask, caller = os.sched_setaffinity, threading.get_ident()

    def interrupted(pid, cpus):
        set_mask(pid, cpus)
        if threading.get_ident() == caller and set(cpus) != before:
            raise KeyboardInterrupt

    monkeypatch.setattr(os, "sched_setaffinity", interrupted)
    with pytest.raises(KeyboardInterrupt):
        rng._replicates(3, (0,), 20, lambda gen: gen.random(3), np.sum)
    assert os.sched_getaffinity(0) == before
    assert threading.active_count() == threads


@pytest.mark.parametrize("broken", ["raises", "missing"])
def test_a_mask_that_cannot_be_set_leaves_the_loop_unplaced(monkeypatch, broken):
    def draw(gen):
        return gen.standard_normal(64)

    _set_loop(monkeypatch, 1)
    want = rng._replicates(2, (1,), 300, draw, np.cumsum, 64)
    _set_loop(monkeypatch, 2, 1)
    tried = []
    if broken == "raises":
        def refuse(pid, cpus):
            tried.append(cpus)
            raise OSError(22, "Invalid argument")
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    got = rng._replicates(2, (1,), 300, draw, np.cumsum, 64)
    assert got.tobytes() == want.tobytes()
    # the worker and the calling thread each tried to take their CPUs, and
    # the calling thread to take its mask back
    assert len(tried) == (3 if broken == "raises" and len(rng._affinity()) >= 2 else 0)


@pytest.mark.parametrize("loop", _LOOPS, indirect=True)
def test_verify_sampler_refuses_draws_whose_t_x_overflows(loop):
    with pytest.raises(ValueError, match=r"^t\*x overflows"):
        verify_sampler(StableParams(1.5, 0.5), 3 * 2**14, 0, t_grid=[0.0, 1e308])


def _rows_seen(seen):
    """A row that records the thread it ran on and the threads running."""
    def row(x):
        seen.add((threading.get_ident(), threading.active_count()))
        return np.cumsum(x)
    return row


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a settable CPU mask")
def test_a_mask_narrowed_to_one_cpu_after_import_runs_the_loop_inline():
    # a process that pins itself after import, as a forked child may, runs
    # every row on its one thread
    def draw(gen):
        return gen.standard_normal(64)

    want = rng._replicates(2, (1,), 300, draw, np.cumsum, 64)
    before = os.sched_getaffinity(0)
    seen = set()
    os.sched_setaffinity(0, {min(before)})
    try:
        got = rng._replicates(2, (1,), 300, draw, _rows_seen(seen), 64)
    finally:
        os.sched_setaffinity(0, before)
    assert seen == {(threading.get_ident(), threading.active_count())}
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cores, inline", [(None, True), (1, True), (2, False)])
def test_with_no_mask_read_the_core_count_decides(monkeypatch, cores, inline):
    def draw(gen):
        return gen.standard_normal(64)

    want = rng._replicates(2, (1,), 300, draw, np.cumsum, 64)
    placed = []
    monkeypatch.setattr(rng, "_affinity", set)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: placed.append(cpus),
                        raising=False)
    seen = set()
    got = rng._replicates(2, (1,), 300, draw, _rows_seen(seen), 64)
    assert got.tobytes() == want.tobytes()
    ((ident, running),) = seen
    assert (ident == threading.get_ident()) == inline
    assert running == threading.active_count() + (0 if inline else 1)
    assert placed == []   # no mask read, none set
