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


def _skipped_lines(tree: ast.AST) -> set[int]:
    """The lines of import statements and ``__all__`` assignments."""
    out: set[int] = set()
    for node in ast.walk(tree):
        exports = isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        if isinstance(node, (ast.Import, ast.ImportFrom)) or exports:
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


def _module_names(tree: ast.AST) -> set[str]:
    """The names a module binds to modules: ``import x as y`` and ``from warpcheck import checks``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.asname or a.name for a in node.names if a.name in MODULES)
    return out


def _own_lines(nodes) -> dict[str, set[int]]:
    """For each name defined by one of the def or class nodes, the lines its definitions span."""
    spans: dict[str, set[int]] = {}
    for node in nodes:
        spans.setdefault(node.name, set()).update(range(node.lineno, node.end_lineno + 1))
    return spans


def _definitions(tree: ast.AST) -> tuple[list[ast.AST], list[ast.AST]]:
    """A module's class methods, and all its def and class nodes."""
    methods = [item for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body if isinstance(item, DEFS)]
    return methods, [node for node in ast.walk(tree) if isinstance(node, DEFS)]


def _public(nodes) -> set[str]:
    return {n.name for n in nodes if not (n.name.startswith("__") and n.name.endswith("__"))}


def test_every_definition_has_a_user():
    """Each def and class in src/ is named again in src/, scripts/ or perfbench/.

    Tests do not count as users, and neither does a re-export (import
    statements and ``__all__`` lists are skipped) or a definition's use of
    itself: a name counts only outside the lines of its own definitions.
    A class method counts as used only through an attribute access
    (``.name``) on something other than a module, or a string literal
    equal to its name (perfbench hooks methods by name), so neither a local
    variable nor a module's function of the same name (``np.zeros``) hides
    an unused method.
    """
    words, members = Counter(), Counter()
    for p in (p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))):
        tree = ast.parse(p.read_text())
        methods, defs = _definitions(tree)
        own, own_method = _own_lines(defs), _own_lines(methods)
        skipped, modules = _skipped_lines(tree), _module_names(tree)
        for lineno, line in enumerate(p.read_text().splitlines(), start=1):
            if lineno not in skipped:
                words.update(word for word in re.findall(r"\w+", line) if lineno not in own.get(word, ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    continue  # np.zeros names no method
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if node.lineno not in skipped and node.lineno not in own_method.get(name, ()):
                members[name] += 1
    unused = set()
    for p in sorted((ROOT / "src" / "warpcheck").glob("*.py")):
        methods, defs = _definitions(ast.parse(p.read_text()))
        others = [node for node in defs if node not in methods]
        unused |= {name for name in _public(others) if words[name] == 0}
        unused |= {name for name in _public(methods) if members[name] == 0}
    assert sorted(unused) == []


def _runtime_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports when it runs: ``from .x import ...`` and ``from . import x``,
    outside ``if TYPE_CHECKING:`` blocks (annotations only, never executed)."""
    out: set[str] = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("name", ["jets", "geometry", "spaces", "statics"])
def test_module_layering(name):
    """The modules depend one way: the curvature and potential layers never import upward.

    conformal analyses phi with ``statics.StaticAnalysis``, so statics must not
    import conformal back; checks and cli sit on top of both.
    """
    tree = ast.parse((ROOT / "src" / "warpcheck" / f"{name}.py").read_text())
    assert _runtime_imports(tree) & {"conformal", "checks", "cli"} == set()
