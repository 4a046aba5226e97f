"""Every public name a module exports is defined in it."""

import importlib
import pkgutil

import pytest

import nonholo

MODULES = ["nonholo"] + [f"nonholo.{m.name}" for m in pkgutil.iter_modules(nonholo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
