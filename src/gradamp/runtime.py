"""The process's numeric environment: heap thresholds, BLAS threads and
one worker thread.

``configure()`` is the first thing ``cli.main`` does.  It acts on the whole
process:

- glibc's ``M_MMAP_THRESHOLD`` goes to 32 MiB (its 64-bit maximum) and
  ``M_TRIM_THRESHOLD`` to 64 MiB, so per-call temporaries above the default
  128 KiB threshold (a conv batch's maps, a client stack's gradient buffer)
  reuse heap pages instead of being mapped and unmapped on every call.
  The pair matters: a trim threshold alone, or 4 MiB / 8 MiB, left some
  workload faulting more.
- numpy's bundled OpenBLAS goes to one thread, at runtime.  Its threaded
  GEMM, dot and norm round differently at one and at two threads, so the
  thread count is part of the byte promise.
- one worker thread, when ``os.sched_getaffinity`` allows the process two
  or more CPUs.  ``worker()`` creates it on first use, and
  ``split(n, job, size)`` is its one caller (the worker contract below).

The heap setting and the worker change no number.  Off glibc, or where
the BLAS call cannot reach the library, that part is left alone and
recorded as ``unset`` or ``unpinned``.  Importing gradamp sets nothing:
library callers keep their own heap and thread count, and run serially
(``workers`` 0).  Every manifest records ``describe()`` under
``runtime.*``.

The worker contract.  ``split(n, job, size)`` hands the worker the upper
half of a job over n clients or client stacks whose rows hold ``size``
floats, and runs the lower half on this thread.  There are two jobs:

- the fang screen's leave-one-out probes (``aggregate.fang_whitelist``),
  which took about 8% off a 100,867-parameter MLP pair;
- a round's client training stacks (``nn.LocalTraining.train_all``),
  which took about 10% more off that pair's raw time.

The gate is the row size: rows shorter than ``SPLIT_FLOATS`` run inline,
since on the 683-parameter conv model a split probe screen saved no time
and raised peak memory about 6%.  The worker half runs in a copy of the
caller's ``contextvars`` context, so it sees the caller's ``np.errstate``:
a caller sets the error state once, around the split.  The jobs call
numpy and ``nn``'s private kernels only, so every public gradamp function
still runs on the main thread, and they move work, not numbers: each
client's result is the same operations on the same values.  Split, the
restored patch max ran no faster, so it is not a job.
"""

from __future__ import annotations

import contextvars
import ctypes
import os

import numpy as np

# mallopt options from glibc's malloc.h; mmap first, since a trim
# threshold alone made the 100k-parameter MLP fault more, not less
_HEAP = (("mmap_threshold", -3, 32 << 20), ("trim_threshold", -1, 64 << 20))

# what configure() achieved; module-level, as what it records belongs to
# the process, not to a run
_state = {"heap": "unset", "blas_threads": "unpinned", "workers": "0"}
_pool = []  # the worker's executor, once made

# Fewest floats in a row for split to use the worker: split, the
# 683-parameter conv model's probes gained nothing and peaked about 6%
# higher, while the 100,867-parameter MLP's probes and training stacks
# took about 8% and 10% off a pair.
SPLIT_FLOATS = 1 << 16


def _blas_build() -> dict:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, LookupError):  # before numpy 2, show_config only prints
        return {}


def _set_heap() -> str:
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return "unset"
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    done = []
    for name, option, value in _HEAP:
        if not mallopt(option, value):
            break
        done.append(f"{name}={value}")
    return ",".join(done) or "unset"


def _pin_blas() -> str:
    # the wheel ships numpy.libs/lib<prefix>64_-<hash>.so, whose symbols
    # carry the build's BLAS name as prefix (scipy-openblas: scipy_openblas)
    prefix = str(_blas_build().get("name", "")).replace("-", "_")
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        found = [f for f in sorted(os.listdir(libs)) if prefix and f.startswith("lib" + prefix)]
        lib = ctypes.CDLL(os.path.join(libs, found[0]))
        setter = getattr(lib, f"{prefix}_set_num_threads64_")
        getter = getattr(lib, f"{prefix}_get_num_threads64_")
    except (OSError, IndexError, AttributeError):
        return "unpinned"
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    getter.argtypes, getter.restype = (), ctypes.c_int
    setter(1)
    return str(getter())


def configure() -> None:
    """Set the heap thresholds and one BLAS thread for this process, and
    enable the worker when two or more CPUs are allowed."""
    _state["heap"] = _set_heap()
    _state["blas_threads"] = _pin_blas()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    _state["workers"] = "1" if cpus >= 2 else "0"


def worker():
    """The process's one worker thread, a single-thread executor created on
    first use, or None when ``configure`` did not enable it."""
    if _state.get("workers") != "1":
        return None
    if not _pool:
        from concurrent.futures import ThreadPoolExecutor

        _pool.append(ThreadPoolExecutor(1, thread_name_prefix="gradamp-worker"))
    return _pool[0]


def split(n: int, job, size: int) -> None:
    """Run ``job(lo, hi)`` over the items 0 .. n - 1 (clients or client
    stacks with rows of ``size`` floats): ``job(n // 2, n)`` on the worker,
    in a copy of this thread's context, and ``job(0, n // 2)`` on this
    thread.  Without a worker, with fewer than two items or with rows
    shorter than ``SPLIT_FLOATS``, it is one inline ``job(0, n)``, so this
    thread's half is the one from 0.  Returns once both halves have ended;
    an exception in either is raised then, this thread's first."""
    pool = worker() if n >= 2 and size >= SPLIT_FLOATS else None
    if pool is None:
        job(0, n)
        return
    ahead = pool.submit(contextvars.copy_context().run, job, n // 2, n)
    try:
        job(0, n // 2)
    finally:
        ahead.exception()  # wait for the worker's half whether or not this one raised
    ahead.result()


def describe() -> dict[str, str]:
    """Heap setting, BLAS thread count, worker count, numpy version and
    BLAS build."""
    blas = _blas_build()
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    return {**_state, "numpy": np.__version__, "blas": name}
