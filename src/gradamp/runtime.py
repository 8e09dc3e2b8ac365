"""The process's numeric environment: heap thresholds and BLAS threads.

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

The heap setting changes no number.  Off glibc, or where the BLAS call
cannot reach the library, that part is left alone and recorded as
``unset`` or ``unpinned``.  Importing gradamp sets nothing: library callers
keep their own heap and thread count.  Every manifest records
``describe()`` under ``runtime.*``.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

# mallopt options from glibc's malloc.h; mmap first, since a trim
# threshold alone made the 100k-parameter MLP fault more, not less
_HEAP = (("mmap_threshold", -3, 32 << 20), ("trim_threshold", -1, 64 << 20))

# what configure() achieved; module-level, as what it records belongs to
# the process, not to a run
_state = {"heap": "unset", "blas_threads": "unpinned"}


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
    """Set the heap thresholds and one BLAS thread for this process."""
    _state["heap"] = _set_heap()
    _state["blas_threads"] = _pin_blas()


def describe() -> dict[str, str]:
    """Heap setting, BLAS thread count, numpy version and BLAS build."""
    blas = _blas_build()
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    return {**_state, "numpy": np.__version__, "blas": name}
