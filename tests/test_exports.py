"""Every name in the __all__ of every crmimo module resolves."""

import importlib
import pkgutil

import pytest

import crmimo

MODULES = sorted(info.name for info in pkgutil.iter_modules(crmimo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"crmimo.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
