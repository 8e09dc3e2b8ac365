"""The benchmark's per-layer names and round marks still resolve in the
package.

``perfbench --trace 1`` wraps the public functions and methods of the
traced modules and reports the metrics that BENCHMARK.json names; a name
that no longer resolves, or a hook that reads an argument or a result
attribute the function no longer has, only shows up as a failed traced
run.  ``perfbench/pair.py`` times setup and rounds by rebinding module
functions; a call path that bypasses a rebound name silently skews
``setup_s`` and ``round_ms``.  These checks read BENCHMARK.json and the
perfbench sources (parsed, not imported) and fail fast instead.  The
tracer keeps one span stack, so every traced call must also enter on the
main thread, even while the runtime worker folds the fang probes.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import sys
import threading
import types
import typing
from collections import Counter

from gradamp.config import ExperimentConfig
from gradamp.harness import run_pair

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PER_FUNCTION = ("calls", "self_ms", "total_ms")


def _tracer_source() -> ast.Module:
    with open(os.path.join(ROOT, "perfbench", "tracer.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _tracer_constants() -> dict[str, object]:
    """Module-level tuple/dict literals of the tracer; dict values that are
    not literals (the hook functions) are kept as their names."""
    out = {}
    for node in _tracer_source().body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if isinstance(node.value, ast.Tuple):
                out[name] = ast.literal_eval(node.value)
            elif isinstance(node.value, ast.Dict):
                out[name] = {
                    ast.literal_eval(k): tuple(getattr(e, "id", None) for e in v.elts)
                    for k, v in zip(node.value.keys, node.value.values)
                }
    return out


TRACER = _tracer_constants()


def _resolve(dotted: str):
    """The public function or method ``<module>.<function>[.<method>]`` of
    ``gradamp.<module>``, defined in that module, or None."""
    module_name, *path = dotted.split(".")
    if module_name not in TRACER["TRACED_MODULES"] or not 1 <= len(path) <= 2:
        return None
    module = importlib.import_module(f"gradamp.{module_name}")
    obj = vars(module).get(path[0])
    if path[0].startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return None
    if len(path) == 2:
        if path[1].startswith("_") or not inspect.isclass(obj):
            return None
        obj = vars(obj).get(path[1])
        obj = getattr(obj, "__func__", obj)
    return obj if inspect.isfunction(obj) else None


def _per_function_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    out = []
    for name in names:
        stem, _, field = name.rpartition(".")
        if field not in PER_FUNCTION or stem.count(".") == 0 or stem.endswith(".in_train"):
            continue  # module totals, counters and the training split
        if name == "config.validate.calls":
            continue  # the sum over VALIDATE_METHODS, checked below
        out.append(stem)
    return out


def test_per_layer_names_resolve_to_public_functions():
    names = _per_function_names() + list(TRACER["TRAINING_SPLIT"] + TRACER["VALIDATE_METHODS"])
    assert "nn.GradientSet.plus" in names
    assert [n for n in names if _resolve(n) is None] == []


def test_hooked_functions_take_the_arguments_their_hooks_read():
    hooks = {
        node.name: node for node in _tracer_source().body if isinstance(node, ast.FunctionDef)
    }
    checked = set()
    for dotted, pair in TRACER["_HOOKS"].items():
        fn = _resolve(dotted)
        assert fn is not None, dotted
        params = inspect.signature(fn).parameters
        for hook in filter(None, pair):
            read = [
                node.slice.value
                for node in ast.walk(hooks[hook])
                if isinstance(node, ast.Subscript)
                and getattr(node.value, "attr", None) == "arguments"
                and isinstance(node.slice, ast.Constant)
            ]
            for arg in read:
                assert arg in params, f"{hook} reads {arg!r}, which {dotted} does not take"
            checked.update(read)
    assert {"attack_enabled", "amped_restored", "gamma_max"} <= checked


def _result_attributes(hook: ast.FunctionDef) -> tuple[set[str], set[str]]:
    """Attributes a hook reads off ``result`` itself, and off the items of
    ``result`` that a comprehension binds (``for a in result``)."""
    items = {
        node.target.id
        for node in ast.walk(hook)
        if isinstance(node, ast.comprehension)
        and getattr(node.iter, "id", None) == "result"
        and isinstance(node.target, ast.Name)
    }
    own, per_item = set(), set()
    for node in ast.walk(hook):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "result":
                own.add(node.attr)
            elif node.value.id in items:
                per_item.add(node.attr)
    return own, per_item


def test_hooks_read_fields_of_the_results_their_functions_return():
    hooks = {
        node.name: node for node in _tracer_source().body if isinstance(node, ast.FunctionDef)
    }
    checked = set()
    for dotted, (_, after) in TRACER["_HOOKS"].items():
        if after is None:
            continue
        own, per_item = _result_attributes(hooks[after])
        returns = typing.get_type_hints(_resolve(dotted))["return"]
        item = (typing.get_args(returns) or (None,))[0]
        for attrs, cls in ((own, returns), (per_item, item)):
            if attrs:
                assert dataclasses.is_dataclass(cls), f"{after} reads {attrs} off {cls}"
                fields = {f.name for f in dataclasses.fields(cls)}
                assert attrs <= fields, f"{after} reads {attrs - fields}, not fields of {cls}"
                checked |= attrs
    assert {"original_size", "values", "accepted"} <= checked


def _expected_call_names() -> set[str]:
    """Every name in the expected-call table of ``perfbench/workloads.py``,
    the ``ZERO`` and ``NONZERO`` sets of all workloads."""
    with open(os.path.join(ROOT, "perfbench", "workloads.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    table = next(
        n for n in tree.body if isinstance(n, ast.AnnAssign) and n.target.id == "WORKLOADS"
    )
    return {
        name
        for node in ast.walk(table.value)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "frozenset"
        for name in ast.literal_eval(node.args[0])
    }


def _tracer_counters() -> set[str]:
    """The counters ``Tracer.summary`` reports: the names of the loop that
    copies ``self.counters`` into its counts."""
    loop = next(
        node
        for node in ast.walk(_tracer_source())
        if isinstance(node, ast.For)
        and any(getattr(n, "attr", None) == "counters" for n in ast.walk(node))
    )
    return set(ast.literal_eval(loop.iter))


def test_expected_call_table_names_traced_functions_and_counters():
    names = _expected_call_names()
    calls = {name.removesuffix(".calls") for name in names if name.endswith(".calls")}
    assert {"attacks.grad_ascent", "data.embed_trigger"} <= calls
    assert sorted(name for name in calls if _resolve(name) is None) == []
    counters = _tracer_counters()
    assert "attacks.sh_candidates" in counters
    others = names - {name + ".calls" for name in calls}
    assert sorted(others - counters) == []


def _round_mark_hooks() -> list[tuple[str, str]]:
    """(module, name) of every ``module.name = ...`` that ``RoundMarks.install``
    in ``perfbench/pair.py`` sets."""
    with open(os.path.join(ROOT, "perfbench", "pair.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    marks = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RoundMarks")
    install = next(n for n in marks.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    return [
        (target.value.id, target.attr)
        for node in ast.walk(install)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id != "self"
    ]


def _counting(fn, name: str, calls: Counter):
    """``fn`` counting its calls under ``name``; a ``local_train`` call
    counts the clients it trains: the stack's size when ``seed`` is a list
    of generators, else 1."""
    signature = inspect.signature(fn)

    def counted(*args, **kwargs):
        seed = signature.bind(*args, **kwargs).arguments.get("seed")
        calls[name] += len(seed) if isinstance(seed, list) else 1
        return fn(*args, **kwargs)

    return counted


def test_round_marks_see_every_run_round_and_training_call(tmp_path, monkeypatch):
    hooks = _round_mark_hooks()
    assert sorted(name for _, name in hooks) == ["aggregate_round", "local_train", "run_experiment"]
    calls: Counter[str] = Counter()
    for module_name, name in hooks:
        module = importlib.import_module(f"gradamp.{module_name}")
        monkeypatch.setattr(module, name, _counting(getattr(module, name), name, calls))
    rounds, clients = 2, 4
    cfg = ExperimentConfig.from_mapping(
        {
            "dataset.per_class": 30,
            "federation.clients": clients,
            "federation.rounds": rounds,
            "model.hidden": 4,
            "attack.kind": "l-flip",
            "attack.start_round": 0,
            "output.dir": str(tmp_path),
        }
    )
    run_pair(cfg, str(tmp_path))
    assert calls["run_experiment"] == 2
    assert calls["aggregate_round"] == 2 * rounds
    assert calls["local_train"] >= 2 * rounds * clients


def _main_thread_only(fn, name: str, calls: Counter, strays: list):
    """``fn`` counting its calls under ``name`` and recording any call that
    enters off the main thread."""

    def checked(*args, **kwargs):
        calls[name] += 1
        if threading.current_thread() is not threading.main_thread():
            strays.append((name, threading.current_thread().name))
        return fn(*args, **kwargs)

    return checked


def test_every_traced_call_enters_on_the_main_thread(
    tmp_path, monkeypatch, fold_worker, wide_fang_pair
):
    calls: Counter[str] = Counter()
    strays: list[tuple[str, str]] = []
    wrapped = {}
    for short in TRACER["TRACED_MODULES"]:
        module = importlib.import_module(f"gradamp.{short}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = _main_thread_only(obj, f"{short}.{attr}", calls, strays)
                monkeypatch.setattr(module, attr, wrapped[obj])
            elif inspect.isclass(obj):
                for mattr, member in list(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    name = f"{short}.{attr}.{mattr}"
                    if inspect.isfunction(member):
                        new = _main_thread_only(member, name, calls, strays)
                    elif isinstance(member, (classmethod, staticmethod)):
                        inner = _main_thread_only(member.__func__, name, calls, strays)
                        new = type(member)(inner)
                    else:
                        continue
                    monkeypatch.setattr(obj, mattr, new)
    # names other modules imported by value, as the tracer rebinds them
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("gradamp.") and isinstance(module, types.ModuleType):
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    monkeypatch.setattr(module, attr, wrapped[obj])
    cfg = ExperimentConfig.from_mapping({**wide_fang_pair, "output.dir": str(tmp_path)})
    run_pair(cfg, str(tmp_path))
    assert fold_worker and threading.main_thread() not in fold_worker
    assert calls["aggregate.fang_whitelist"] == 5 and calls["nn.forward"] > 20
    assert strays == []


def test_no_traced_function_is_a_generator():
    # The tracer's span around a generator function closes when the
    # generator is made, so its work would land in the caller's self time.
    generators = []
    for short in TRACER["TRACED_MODULES"]:
        module = importlib.import_module(f"gradamp.{short}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = {attr: obj}
            if inspect.isclass(obj):
                members = {
                    f"{attr}.{m}": getattr(member, "__func__", member)
                    for m, member in vars(obj).items()
                    if not m.startswith("_")
                }
            generators += [
                f"{short}.{name}"
                for name, fn in members.items()
                if inspect.isgeneratorfunction(fn) or inspect.isasyncgenfunction(fn)
            ]
    assert generators == []
