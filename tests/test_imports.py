"""Every name a ``conespde`` module imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule.  The package
``__init__`` exists to re-export, so it is exempt, as are ``__future__``
imports and names a module lists in its own ``__all__``.  Quoted
annotations count as uses of the names they mention.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conespde"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _names(ast.parse(ann.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_checker_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nd()\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "b"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"
