"""The public surface: every name a module exports exists, and no module
imports another's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pathfuse

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathfuse.__path__))


def test_every_module_is_checked():
    assert {"atmosphere", "estimators", "evaluation", "io", "models"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"pathfuse.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_module_imports_a_private_name_from_another():
    # a private helper shared across modules is a public API in disguise
    crossings = []
    for name in MODULES:
        path = Path(pathfuse.__path__[0]) / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("pathfuse")
            crossings += [f"{name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if internal and alias.name.startswith("_")]
    assert crossings == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _constant(path, name):
    """The literal value of ``name = ...`` in the module at ``path``, unimported."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def test_the_benchmark_harness_still_finds_what_it_calls(capsys):
    # perfbench wraps these layers by module and name, and times set-up by
    # running SETUP_CODE, which calls the loaders with no arguments
    layers = _constant(PERFBENCH / "spans.py", "LAYERS")
    missing = [f"{module}.{name}" for module, name, _ in layers
               if not callable(getattr(importlib.import_module(f"pathfuse.{module}"),
                                       name, None))]
    assert missing == []
    setup = _constant(PERFBENCH / "run.py", "SETUP_CODE")
    calls = {node.func.id: node for node in ast.walk(ast.parse(setup))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    for loader in ("load_registry", "load_reference_targets"):
        assert not (calls[loader].args or calls[loader].keywords)
    exec(setup, {})
    assert float(capsys.readouterr().out) > 0
