"""Every exported name resolves, and every definition has a user outside the tests."""

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
DEFS = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef


def test_package_exports_resolve():
    assert [name for name in warpcheck.__all__ if not hasattr(warpcheck, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"warpcheck.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _uses(path: Path) -> str:
    """A file's text with its import statements and ``__all__`` assignments blanked out."""
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        exports = isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        if isinstance(node, (ast.Import, ast.ImportFrom)) or exports:
            lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _own_lines(tree: ast.AST) -> dict[str, set[int]]:
    """For each name defined by a def or class, the lines its definitions span."""
    spans: dict[str, set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, DEFS):
            spans.setdefault(node.name, set()).update(range(node.lineno, node.end_lineno + 1))
    return spans


def test_every_definition_has_a_user():
    """Each def and class in src/ is named again in src/, scripts/ or perfbench/.

    Tests do not count as users, and neither does a re-export (import
    statements and ``__all__`` lists are skipped) or a definition's use of
    itself: a name counts only outside the lines of its own definitions.
    """
    uses = Counter()
    for p in (p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))):
        own = _own_lines(ast.parse(p.read_text()))
        for lineno, line in enumerate(_uses(p).splitlines(), start=1):
            uses.update(word for word in re.findall(r"\w+", line) if lineno not in own.get(word, ()))
    names = {
        node.name
        for p in sorted((ROOT / "src" / "warpcheck").glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, DEFS) and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    assert sorted(name for name in names if uses[name] == 0) == []
