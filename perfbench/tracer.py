"""Outside-in tracing of gradamp's layers, installed from the benchmark.

``Tracer.install`` wraps every public function (and every public method of
every class) defined in the traced modules.  Each call records a span with
its name, its parent span and a run id (0 outside any experiment, then 1, 2,
... per ``harness.run_experiment`` call).  Spans are kept in memory and
written out once the pair has ended.

Names imported by value (``harness.craft_updates``, ``harness.aggregate_round``,
``harness.accuracy``, ``aggregate.amplify``, ``cli.run_pair``, ...) are
rebound by scanning every loaded ``gradamp`` module for the original function
objects; ``verify`` then fails if any original is still reachable, so a call
path cannot bypass its wrapper unnoticed.  Modules are reached through
``importlib`` because ``gradamp.amplify`` on the package is the re-exported
function, not the module.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
import types
from collections import Counter

TRACED_MODULES = ("config", "data", "nn", "attacks", "amplify", "aggregate", "metrics", "harness")

VALIDATE_METHODS = (
    "config.ExperimentConfig.validate",
    "attacks.AttackConfig.validate",
    "amplify.AmplifierConfig.validate",
    "aggregate.AggregatorConfig.validate",
)

# nn functions whose self time is also reported for calls inside local_train
TRAINING_SPLIT = ("nn.forward", "nn.backward", "nn.apply_update")

# files whose bytes are fixed by config and seeds (wall-clock files excluded)
DETERMINISTIC_FILES = ("config.txt", "rounds.csv", "decisions.csv", "metrics.csv", "amplified.csv")

COVERAGE_TOLERANCE = 0.05


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.run = 0
        self.attacked = False
        self.cohort: frozenset[int] = frozenset()
        self.counters: Counter[str] = Counter()
        self.wrapped: dict[str, object] = {}
        self._originals: dict[object, object] = {}

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None))
        signature = inspect.signature(fn) if (before or after) else None
        names, parents, runs, starts, ends, stack = (
            self.names,
            self.parents,
            self.runs,
            self.starts,
            self.ends,
            self.stack,
        )
        clock = time.monotonic
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, signature.bind(*args, **kwargs))
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if after is not None:
                after(tracer, signature.bind(*args, **kwargs), result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        self.wrapped[name] = fn
        self._originals[fn] = traced
        return traced

    def install(self) -> None:
        for short in TRACED_MODULES:
            module = importlib.import_module(f"gradamp.{short}")
            if not isinstance(module, types.ModuleType):
                raise RuntimeError(f"gradamp.{short} resolved to {type(module).__name__}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    setattr(module, attr, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        for module in self._gradamp_modules():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in self._originals:
                    setattr(module, attr, self._originals[obj])
        self.verify()

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, member.__func__)))

    @staticmethod
    def _gradamp_modules() -> list[types.ModuleType]:
        return [
            m
            for n, m in list(sys.modules.items())
            if (n == "gradamp" or n.startswith("gradamp.")) and isinstance(m, types.ModuleType)
        ]

    def verify(self) -> None:
        """Fail if any original function is still reachable from a module
        namespace or a class, or if a hooked name was not found."""
        leaks = []
        for module in self._gradamp_modules():
            for attr, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and obj in self._originals:
                    leaks.append(f"{module.__name__}.{attr}")
                if inspect.isclass(obj):
                    for mattr, member in vars(obj).items():
                        fn = getattr(member, "__func__", member)
                        if isinstance(fn, types.FunctionType) and fn in self._originals:
                            leaks.append(f"{module.__name__}.{attr}.{mattr}")
        missing = sorted(set(_HOOKS) - set(self.wrapped)) + sorted(
            set(VALIDATE_METHODS) - set(self.wrapped)
        )
        if leaks or missing:
            raise RuntimeError(f"unwrapped references {leaks}; hooked names not found {missing}")

    # -- results --------------------------------------------------------------

    def summary(self, wall_s: float, paused_s: float, out_dir: str) -> dict[str, object]:
        """Per-function calls/self/total, per-module self time, exact counts
        and the coverage check, for a pair that took ``wall_s`` seconds of
        program time; ``paused_s`` of calibration ran inside harness spans
        and is taken out of their self time."""
        n = len(self.names)
        module = [_module_of(name) for name in self.names]
        child = [0.0] * n
        in_layer = [False] * n   # some ancestor belongs to a non-harness module
        in_train = [False] * n   # some ancestor is nn.local_train
        bad_nesting = 0
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
                in_layer[i] = in_layer[p] or module[p] != "harness"
                in_train[i] = in_train[p] or self.names[p] == "nn.local_train"
                if self.starts[i] < self.starts[p] or self.ends[i] > self.ends[p]:
                    bad_nesting += 1
        # same-name nesting: only the outermost span adds to total_ms
        outermost = [True] * n
        active: Counter[str] = Counter()
        open_spans: list[int] = []
        for i in range(n):
            while open_spans and self.parents[i] != open_spans[-1]:
                active[self.names[open_spans.pop()]] -= 1
            outermost[i] = active[self.names[i]] == 0
            active[self.names[i]] += 1
            open_spans.append(i)

        calls = dict.fromkeys(self.wrapped, 0)
        self_ms = dict.fromkeys(self.wrapped, 0.0)
        total_ms = dict.fromkeys(self.wrapped, 0.0)
        module_ms = dict.fromkeys(TRACED_MODULES, 0.0)
        train_ms = dict.fromkeys(TRAINING_SPLIT, 0.0)
        layer_top_ms = 0.0
        for i in range(n):
            name = self.names[i]
            dur = (self.ends[i] - self.starts[i]) * 1000.0
            own = dur - child[i] * 1000.0
            calls[name] += 1
            self_ms[name] += own
            if outermost[i]:
                total_ms[name] += dur
            module_ms[module[i]] += own
            if in_train[i] and name in train_ms:
                train_ms[name] += own
            if module[i] != "harness" and not in_layer[i]:
                layer_top_ms += dur

        wall_ms = wall_s * 1000.0
        harness_spans_ms = module_ms["harness"] - paused_s * 1000.0
        # harness self time as the pair's wall time minus the top-level layer
        # spans; the spans' own harness self time is the independent check
        module_ms["harness"] = wall_ms - layer_top_ms
        coverage_error = abs(layer_top_ms + harness_spans_ms - wall_ms) / wall_ms
        problems = []
        if coverage_error > COVERAGE_TOLERANCE:
            problems.append(
                f"coverage: layer spans {layer_top_ms:.1f} ms + harness spans "
                f"{harness_spans_ms:.1f} ms vs wall {wall_ms:.1f} ms"
            )
        if bad_nesting:
            problems.append(f"coverage: {bad_nesting} spans not inside their parent")

        counts = {f"{name}.calls": calls[name] for name in self.wrapped}
        counts["config.validate.calls"] = sum(calls[name] for name in VALIDATE_METHODS)
        for key in ("amplify.in_floats", "amplify.out_floats", "aggregate.fang_probes",
                    "aggregate.rejected", "aggregate.rejected_malicious", "attacks.sh_candidates"):
            counts[key] = int(self.counters[key])
        counts["harness.bytes_written"] = _deterministic_bytes(out_dir)
        counts["trace.spans"] = n

        times = {}
        for name in self.wrapped:
            times[f"{name}.self_ms"] = self_ms[name]
            times[f"{name}.total_ms"] = total_ms[name]
        for name in TRAINING_SPLIT:
            times[f"{name}.in_train.self_ms"] = train_ms[name]
        for m in TRACED_MODULES:
            times[f"{m}.self_ms"] = module_ms[m]
        times["trace.uncovered_ms"] = wall_ms - layer_top_ms - harness_spans_ms
        return {"counts": counts, "times": times, "problems": problems}

    def write_spans(self, path: str) -> None:
        """Spans as CSV, times from the first span's start; harness spans
        include the calibration blocks timed inside them."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("span,parent,run,name,start_ms,end_ms\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parents[i]},{self.runs[i]},{name},"
                    f"{(self.starts[i] - origin) * 1000.0:.4f},{(self.ends[i] - origin) * 1000.0:.4f}\n"
                )


def _deterministic_bytes(out_dir: str) -> int:
    total = 0
    for folder, _, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files if f in DETERMINISTIC_FILES)
    return total


# ---------------------------------------------------------------------------
# counters taken at layer boundaries; each hook sees the bound arguments


def _enter_run(tracer: Tracer, bound) -> None:
    bound.apply_defaults()
    tracer.run += 1
    tracer.attacked = bool(bound.arguments["attack_enabled"])
    tracer.cohort = frozenset()


def _cohort(tracer: Tracer, bound, result) -> None:
    if tracer.attacked:
        tracer.cohort = frozenset(int(i) for i in result)


def _amplified(tracer: Tracer, bound, result) -> None:
    tracer.counters["amplify.in_floats"] += sum(int(a.original_size) for a in result)
    tracer.counters["amplify.out_floats"] += sum(int(a.values.size) for a in result)


def _fang_probes(tracer: Tracer, bound, result) -> None:
    tracer.counters["aggregate.fang_probes"] += len(bound.arguments["amped_restored"])


def _verdicts(tracer: Tracer, bound, result) -> None:
    rejected = [i for i, ok in enumerate(result.accepted) if not ok]
    tracer.counters["aggregate.rejected"] += len(rejected)
    tracer.counters["aggregate.rejected_malicious"] += sum(1 for i in rejected if i in tracer.cohort)


def _sh_candidates(tracer: Tracer, bound, result) -> None:
    # gamma halves from gamma_max per rejected candidate; 0 means all 20 failed
    gamma = float(result[1])
    gamma_max = float(bound.arguments["gamma_max"])
    tracer.counters["attacks.sh_candidates"] += (
        20 if gamma == 0.0 else int(round(math.log2(gamma_max / gamma))) + 1
    )


_HOOKS = {
    "harness.run_experiment": (_enter_run, None),
    "attacks.select_malicious": (None, _cohort),
    "amplify.amplify": (None, _amplified),
    "aggregate.fang_whitelist": (None, _fang_probes),
    "aggregate.aggregate_round": (None, _verdicts),
    "attacks.sh_optimized": (None, _sh_candidates),
}
