"""The public surface: every name a module exports exists."""

import importlib
import pkgutil

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
