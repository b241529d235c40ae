"""Every name a module exports exists."""

import importlib
import pkgutil

import pytest

import oswr

MODULES = ["oswr"] + sorted(m.name for m in pkgutil.iter_modules(oswr.__path__, "oswr."))


def test_modules_found():
    assert "oswr.dgsolver" in MODULES and "oswr.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
