"""Every exported name resolves, and every definition has a user."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import warpcheck

MODULES = sorted(m.name for m in pkgutil.iter_modules(warpcheck.__path__))
ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_resolve():
    assert [name for name in warpcheck.__all__ if not hasattr(warpcheck, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"warpcheck.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_definition_has_a_user():
    """Each def and class in src/ is named again in src/, scripts/, perfbench/ or tests/."""
    sources = [p for d in ("src", "scripts", "perfbench", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(word for p in sources for word in re.findall(r"\w+", p.read_text()))
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    names = {
        node.name
        for p in sorted((ROOT / "src" / "warpcheck").glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, defs) and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    assert sorted(name for name in names if words[name] < 2) == []
