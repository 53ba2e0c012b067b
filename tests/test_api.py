"""Every exported name resolves, so a deletion leaves no dangling export."""

import importlib
import pkgutil

import pytest

import warpcheck

MODULES = sorted(m.name for m in pkgutil.iter_modules(warpcheck.__path__))


def test_package_exports_resolve():
    assert [name for name in warpcheck.__all__ if not hasattr(warpcheck, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"warpcheck.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
