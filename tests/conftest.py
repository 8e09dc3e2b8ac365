"""Shared pytest wiring.

The acceptance module records one verdict per gate while it runs; the
terminal-summary hook below prints those verdicts as a block at the end
of the session so a plain ``pytest`` run always shows one PASS/FAIL
line per gate, whether or not output capturing is on.  ``fold_worker``
turns on the runtime worker for one test, and ``wide_fang_pair`` is a
pair whose leave-one-out probes and training stacks are long enough to
split across it and the main thread.
"""

import sys
import threading

import pytest

from gradamp import runtime


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    verdicts = getattr(mod, "VERDICTS", None)
    if not verdicts:
        return
    terminalreporter.section("acceptance gates")
    for num, label, ok, detail in sorted(verdicts):
        tail = f"  ({detail})" if detail else ""
        terminalreporter.write_line(
            f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}{tail}"
        )


@pytest.fixture
def fold_worker(monkeypatch):
    """The runtime worker on, as ``runtime.configure`` turns it on with two
    or more CPUs.  Returns the list of threads the jobs handed to it ran
    on, one entry per half that ``runtime.split`` handed over."""
    monkeypatch.setitem(runtime._state, "workers", "1")
    pool = runtime.worker()
    threads = []

    def recorded(fn, *args):
        threads.append(threading.current_thread())
        return fn(*args)

    class Recording:
        def submit(self, fn, *args):
            return pool.submit(recorded, fn, *args)

    monkeypatch.setattr(runtime, "worker", Recording)
    return threads


@pytest.fixture
def wide_fang_pair():
    """A pair's settings: fang on the restored patch max of a 784 -> 128 ->
    3 MLP (100,867 parameters), whose rows reach ``runtime.SPLIT_FLOATS``, so
    the upper half of each screen's probes and of each round's four
    one-client training stacks goes to the worker when there is one; the
    restored patch max, four one-client stacks in its first weight panel,
    stays on the main thread."""
    return {
        "dataset.dim": 784,
        "dataset.per_class": 60,
        "model.hidden": 128,
        "federation.clients": 4,
        "federation.rounds": 3,
        "federation.checkpoint_every": 1,
        "validation.size": 30,
        "attack.kind": "g-asc",
        "attack.start_round": 1,
        "defense.family": "fang",
        "defense.amplifier": "mp",
        "defense.restore_size": "auto",
    }
