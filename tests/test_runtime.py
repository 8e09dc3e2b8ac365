"""``runtime.split``: which jobs it splits, which halves run where, what
error state the worker half sees, how an exception in either half
reaches the caller, and the client stacks its two jobs over client rows
build at the benchmark's shapes."""

import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from gradamp import harness, nn, runtime
from gradamp.amplify import AmplifierConfig, amplify_mp
from gradamp.config import ExperimentConfig
from gradamp.data import Dataset
from gradamp.seeding import rng_stream


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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIDE = runtime.SPLIT_FLOATS  # the shortest row size a split hands the worker


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
    runtime.split(7, recording(calls), WIDE)
    assert calls == [(0, 7, threading.main_thread())]
    assert pool.submits == []


def test_a_job_of_short_rows_runs_inline_beside_a_worker(fold_worker):
    calls = []
    runtime.split(10, recording(calls), runtime.SPLIT_FLOATS - 1)
    assert calls == [(0, 10, threading.main_thread())]
    assert fold_worker == []


def test_split_of_one_client_runs_inline(fold_worker):
    calls = []
    runtime.split(1, recording(calls), WIDE)
    assert calls == [(0, 1, threading.main_thread())]
    assert fold_worker == []


@pytest.mark.parametrize("n", [2, 3, 10])
def test_split_gives_the_worker_the_upper_half(fold_worker, n):
    calls = []
    runtime.split(n, recording(calls), WIDE)
    ranges = {(lo, hi): thread for lo, hi, thread in calls}
    assert sorted(ranges) == [(0, n // 2), (n // 2, n)]
    assert ranges[0, n // 2] is threading.main_thread()
    assert ranges[n // 2, n] is not threading.main_thread()
    assert fold_worker == [ranges[n // 2, n]]


def test_a_worker_half_that_raises_raises_after_the_main_half_ends(fold_worker):
    calls, done = [], []
    with pytest.raises(ValueError, match="half 2"):
        runtime.split(4, recording(calls, fail=2, slow=0, done=done), WIDE)
    assert done == [0]  # the main half ended before the worker's error was raised
    assert len(fold_worker) == 1


def test_a_main_half_that_raises_waits_for_the_worker_half(fold_worker):
    calls, done = [], []
    with pytest.raises(ValueError, match="half 0"):
        runtime.split(4, recording(calls, fail=0, slow=2, done=done), WIDE)
    assert done == [2]  # the worker's half had ended when the error propagated


def test_when_both_halves_raise_the_main_half_wins(fold_worker):
    calls = []

    def job(lo, hi):
        calls.append(lo)
        raise ValueError(f"half {lo}")

    with pytest.raises(ValueError, match="half 0"):
        runtime.split(4, job, WIDE)
    assert sorted(calls) == [0, 2]


def test_the_worker_half_runs_under_the_callers_error_state(fold_worker):
    # numpy keeps its error state in a context variable; a worker half run
    # outside the caller's context would read the default state instead.
    seen = {}

    def job(lo, hi):
        seen[lo] = np.geterr()

    with np.errstate(over="ignore", invalid="raise", divide="warn"):
        want = np.geterr()
        runtime.split(2, job, WIDE)
    assert seen == {0: want, 1: want}
    assert len(fold_worker) == 1 and threading.main_thread() not in fold_worker


# The benchmark's three shapes (perfbench/workloads): the model, its input
# shape, its clients and their equal shard size; then the clients per
# stack of each train_all call and of each amplify_mp panel.
BENCH_SHAPES = {
    # a conv step's batch trace, not its 683 parameters, fills STACK_FLOATS:
    # 59,183 floats a client, two to a stack; its patch-max panels are
    # small enough to hold all 10 clients
    "conv": (nn.conv_model((1, 12, 12), 3, seed=0), (1, 12, 12), 10, 30, [2] * 5, [10]),
    "mlp50": (nn.mlp_model(20, 16, 3, seed=0), (20,), 50, 12, [50], [50]),
    # 100,867-float rows reach SPLIT_FLOATS: one stack a split half
    "mlp100k": (nn.mlp_model(784, 128, 3, seed=0), (784,), 10, 30, [5, 5], [5, 5]),
}


def _stacks_seen(monkeypatch, name, size_of):
    """Rebind the ``nn`` kernel ``name``, which both threads reach (the
    main one through its public wrapper), to record per call the stack's
    client count and whether it ran on the main thread."""
    seen = []
    kernel = getattr(nn, name)

    def recorded(*args, **kwargs):
        seen.append((size_of(args), threading.current_thread() is threading.main_thread()))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(nn, name, recorded)
    return seen


def _placed(stacks, split):
    """(clients, on the main thread) per stack: the upper half goes to the
    worker when the rows split."""
    half = len(stacks) // 2 if split else len(stacks)
    return sorted((m, i < half) for i, m in enumerate(stacks))


@pytest.mark.parametrize("with_worker", [False, True], ids=["serial", "worker"])
@pytest.mark.parametrize("shape", list(BENCH_SHAPES))
def test_the_stack_table_at_the_benchmark_shapes(request, monkeypatch, shape, with_worker):
    # Pinned so that a change of either cap cannot move a workload's stacks
    # (and with them the conv path's peak RSS) unseen.
    model, shape_in, clients, samples, train_stacks, panel_stacks = BENCH_SHAPES[shape]
    if with_worker:
        workers = request.getfixturevalue("fold_worker")
    else:
        workers = []
        monkeypatch.setattr(runtime, "worker", lambda: None)
    split = with_worker and model.theta.size >= runtime.SPLIT_FLOATS
    rng = rng_stream(60)
    shards = [
        Dataset(rng.normal(size=(samples, *shape_in)), rng.integers(0, 3, size=samples), 3)
        for _ in range(clients)
    ]
    trained = _stacks_seen(monkeypatch, "_local_train", lambda a: len(a[6]))
    out = np.empty((clients, model.theta.size))
    nn.LocalTraining(epochs=1, batch_size=64, lr=0.03, seed=61).train_all(model, shards, 0, out)
    assert sorted(trained) == _placed(train_stacks, split)

    filtered = _stacks_seen(monkeypatch, "_block_max", lambda a: len(a[0]))
    amplify_mp(out, model, AmplifierConfig(kind="mp", restore_size=True))
    # each model has 4 panels: two weights and two biases
    assert sorted(filtered) == sorted(_placed(panel_stacks, split) * 4)
    assert len(workers) == 2 * split


# tracemalloc peak, in bytes, of one conv-fang-xai-dba round's fang screen
# on the xai view while its selections and probes ran traced forwards,
# which held the conv's full relu maps: then the run's high-water mark.
TRACED_SCREEN_PEAK = 3_119_888


def test_a_conv_train_all_peaks_above_its_screen_and_below_the_traced_screen(monkeypatch):
    # The selections and probes run trace-free, so two-client train_all
    # stacks set the round's peak, and STACK_FLOATS stays at two conv
    # clients a stack because their peak stays below the traced screen's:
    # three clients a stack peak above it, and a cap raised that far would
    # raise conv's peak RSS.
    cfg = ExperimentConfig.from_file(os.path.join(ROOT, "perfbench", "workloads", "conv-fang-xai-dba.cfg"))
    run = harness._prepare(cfg, True)
    peaks = {}

    def traced(name, fn):
        def call(*args):
            tracemalloc.start()
            try:
                return fn(*args)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        return call

    monkeypatch.setattr(nn.LocalTraining, "train_all", traced("train_all", nn.LocalTraining.train_all))
    monkeypatch.setattr(harness, "aggregate_round", traced("screen", harness.aggregate_round))
    run.step()
    assert 0 < peaks["screen"] < peaks["train_all"] < TRACED_SCREEN_PEAK
