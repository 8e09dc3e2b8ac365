"""``runtime.split``: which halves run where, and how an exception in
either half reaches the caller."""

import threading
import time

import pytest

from gradamp import runtime


def recording(calls, fail=None, slow=None, done=None):
    """A job recording (lo, hi, thread) per call.  The half starting at
    ``fail`` raises at once, the one starting at ``slow`` sleeps 50 ms
    first, and each half that ends without raising appends its lo to
    ``done``."""

    def job(lo, hi):
        calls.append((lo, hi, threading.current_thread()))
        if lo == fail:
            raise ValueError(f"half {lo}")
        if lo == slow:
            time.sleep(0.05)
        if done is not None:
            done.append(lo)

    return job


class RefusingPool:
    """A pool that records what it is handed and runs nothing."""

    def __init__(self):
        self.submits = []

    def submit(self, *args):
        self.submits.append(args)


def test_split_without_a_worker_is_one_inline_call(monkeypatch):
    monkeypatch.setitem(runtime._state, "workers", "0")
    pool = RefusingPool()
    monkeypatch.setattr(runtime, "_pool", [pool])  # made earlier, now disabled
    calls = []
    runtime.split(7, recording(calls))
    assert calls == [(0, 7, threading.main_thread())]
    assert pool.submits == []


def test_split_of_one_client_runs_inline(fold_worker):
    calls = []
    runtime.split(1, recording(calls))
    assert calls == [(0, 1, threading.main_thread())]
    assert fold_worker == []


@pytest.mark.parametrize("n", [2, 3, 10])
def test_split_gives_the_worker_the_upper_half(fold_worker, n):
    calls = []
    runtime.split(n, recording(calls))
    ranges = {(lo, hi): thread for lo, hi, thread in calls}
    assert sorted(ranges) == [(0, n // 2), (n // 2, n)]
    assert ranges[0, n // 2] is threading.main_thread()
    assert ranges[n // 2, n] is not threading.main_thread()
    assert fold_worker == [ranges[n // 2, n]]


def test_a_worker_half_that_raises_raises_after_the_main_half_ends(fold_worker):
    calls, done = [], []
    with pytest.raises(ValueError, match="half 2"):
        runtime.split(4, recording(calls, fail=2, slow=0, done=done))
    assert done == [0]  # the main half ended before the worker's error was raised
    assert len(fold_worker) == 1


def test_a_main_half_that_raises_waits_for_the_worker_half(fold_worker):
    calls, done = [], []
    with pytest.raises(ValueError, match="half 0"):
        runtime.split(4, recording(calls, fail=0, slow=2, done=done))
    assert done == [2]  # the worker's half had ended when the error propagated


def test_when_both_halves_raise_the_main_half_wins(fold_worker):
    calls = []

    def job(lo, hi):
        calls.append(lo)
        raise ValueError(f"half {lo}")

    with pytest.raises(ValueError, match="half 0"):
        runtime.split(4, job)
    assert sorted(calls) == [0, 2]
