"""Every public name of the package and of each of its modules resolves."""

import importlib
import pkgutil

import pytest

import sibmatch

MODULES = sorted(info.name for info in pkgutil.iter_modules(sibmatch.__path__))


def test_package_exports_resolve():
    assert [name for name in sibmatch.__all__ if not hasattr(sibmatch, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"sibmatch.{module}")
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from sibmatch.{module} import *", namespace)
    assert set(exported) <= namespace.keys()
