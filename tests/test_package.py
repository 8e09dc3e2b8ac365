"""The package re-exports nothing: each module is reached by its own name."""

import importlib
import pathlib
import types

import pytest

import gradamp

MODULES = sorted(
    p.stem for p in pathlib.Path(gradamp.__file__).parent.glob("*.py") if p.stem != "__init__"
)


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
