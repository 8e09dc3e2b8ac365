"""The package re-exports nothing: each module is reached by its own name,
and it keeps only code that something calls."""

import ast
import importlib
import json
import pathlib
import types

import pytest

import gradamp

SRC = pathlib.Path(gradamp.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_the_package_has_modules():
    assert {"amplify", "harness", "nn", "report"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_as_a_module_under_its_own_name(name):
    module = importlib.import_module(f"gradamp.{name}")
    assert isinstance(module, types.ModuleType)
    assert module.__name__ == f"gradamp.{name}"
    # ``import gradamp.<name> as m`` binds the package attribute, which a
    # re-exported function of the same name would shadow.
    assert getattr(gradamp, name) is module


def _definitions(node, prefix):
    """(qualified name, name) of every function, class and method below
    ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child.name
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def _called_from_outside(qualname):
    """Whether ``module.Class.method`` overrides a method of a base class
    from outside the package, which that code calls (numpy calls
    ``generate_state`` on a seed sequence)."""
    module, *owner, name = qualname.split(".")
    if len(owner) != 1:
        return False
    cls = getattr(importlib.import_module(f"gradamp.{module}"), owner[0])
    return any(
        hasattr(base, name)
        for base in cls.__mro__[1:]
        if not base.__module__.startswith("gradamp")
    )


def test_every_definition_is_named_somewhere_in_the_package():
    # A name-level scan: a function, class or method whose name appears in
    # no ``Name`` or attribute anywhere in src/ has no caller there.  It is
    # coarse: a definition whose name is also used as a variable or
    # parameter (``x = feature_maps``) escapes it.  Dunder methods are
    # Python's to call.  Derived exceptions: overrides that code outside
    # the package calls, and the members the benchmark's per-layer rows
    # name (``nn.GradientSet.plus.calls`` keeps ``nn.GradientSet.plus``).
    definitions, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        definitions += _definitions(tree, path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    rows = [row["name"] for row in json.loads(BENCHMARK.read_text())["per_layer"]]
    unnamed = [
        qualname
        for qualname, name in definitions
        if name not in named
        and not (name.startswith("__") and name.endswith("__"))
        and not any(row.startswith(qualname + ".") for row in rows)
        and not _called_from_outside(qualname)
    ]
    assert unnamed == []


def _named_in(tree, prefix, name):
    """Qualified names of the functions below ``tree`` (``prefix`` at module
    level) whose own bodies name ``name``, as a variable or an attribute."""
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _named_in(child, f"{prefix}.{child.name}", name)
        elif any(
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            for node in ast.walk(child)
        ):
            found.append(prefix)
    return found


def test_split_owns_the_worker_and_the_stack_cap_only_sizes_stacks():
    # The worker contract lives in runtime: only split hands the worker a
    # job, and the row-size gate is its SPLIT_FLOATS.  STACK_FLOATS caps
    # how many floats a client stack holds, so only the two modules that
    # build stacks name it.
    worker, stack_cap = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        worker += _named_in(tree, path.stem, "worker")
        if _named_in(tree, path.stem, "STACK_FLOATS"):
            stack_cap.add(path.stem)
    assert sorted(set(worker)) == ["runtime.split"]
    assert stack_cap == {"amplify", "nn"}
