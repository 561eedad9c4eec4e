"""Every name a ``conespde`` module imports is used in that module,
every private module-level name is used somewhere in the package, every
public function, class and method is referred to somewhere in the
package, its tests or the benchmark, and every function reads each of
its parameters.

A stdlib-only stand-in for a linter's unused-import and dead-code rules.
The package ``__init__`` exists to re-export, so it is exempt from the
import rule, as are ``__future__`` imports and names a module lists in
its own ``__all__``.  Quoted annotations count as uses of the names they
mention.
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


# ``StateVec`` has no constructor that skips coordinate validation: code
# that handles many states takes raw arrays and validates them where
# they enter.  The envelope searches used one, ``_unchecked``, until
# they moved to batch targets; no module may bring it back.
UNCHECKED = "_unchecked"
UNCHECKED_ALLOWED: set[str] = set()


def unchecked_uses(tree: ast.Module) -> list[int]:
    """Lines naming the unchecked constructor: attribute, bare name or
    a string (as in ``getattr(StateVec, "_unchecked")``)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == UNCHECKED)
        or (isinstance(node, ast.Name) and node.id == UNCHECKED)
        or (isinstance(node, ast.Constant) and node.value == UNCHECKED)
    )


def test_checker_sees_an_unchecked_use():
    tree = ast.parse('a = StateVec._unchecked(x)\nb = getattr(StateVec, "_unchecked")\n')
    assert unchecked_uses(tree) == [1, 2]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name not in UNCHECKED_ALLOWED),
    ids=lambda p: p.name,
)
def test_unchecked_state_stays_in_approx(path):
    lines = unchecked_uses(ast.parse(path.read_text()))
    assert not lines, f"{path.name} uses StateVec.{UNCHECKED} on lines {lines}"


# A private module-level helper that no module of the package refers to
# is dead code, even when a test still calls it.


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` bindings (functions, classes, assignments)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def references(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in ``tree``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_checker_sees_a_dead_private_name():
    tree = ast.parse("_A, _B = 1, 2\ndef _f(): return _A\nclass _C: pass\nx = _f()\n")
    assert set(private_definitions(tree)) - references(tree) == {"_B", "_C"}


PACKAGE_REFS = set().union(*(references(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py")))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_private_names(path):
    defined = private_definitions(ast.parse(path.read_text()))
    dead = [f"{name} (line {line})" for name, line in defined.items() if name not in PACKAGE_REFS]
    assert not dead, f"{path.name} defines but the package never uses: {', '.join(dead)}"


# A public function, class or method that nothing refers to is dead
# code as well.  Its callers may live in the tests or in ``perfbench``,
# so references are collected there too.  Click commands are reached
# through the ``@cli.command`` that registers them, and are exempt.

ROOT = PACKAGE.parent.parent
ALL_REFS = set().union(
    *(
        references(ast.parse(p.read_text()))
        for p in (*PACKAGE.glob("*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py"))
    )
)


def _is_cli_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command"
        and isinstance(d.func.value, ast.Name)
        and d.func.value.id == "cli"
        for d in node.decorator_list
    )


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """``qualname -> line`` of every module-level function and class and
    every method (nested classes included) whose name has no leading
    underscore, click commands aside."""
    names = {}

    def visit(body: list[ast.stmt], owner: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{owner}{node.name}"
                if not node.name.startswith("_") and not _is_cli_command(node):
                    names[qualname] = node.lineno
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{qualname}.")

    visit(tree.body, "")
    return names


def dead_public_names(tree: ast.Module, refs: set[str]) -> list[str]:
    defined = public_definitions(tree)
    return [f"{q} (line {line})" for q, line in defined.items() if q.rsplit(".", 1)[-1] not in refs]


def test_checker_sees_a_dead_public_name():
    tree = ast.parse(
        "def f(): pass\ndef g(): pass\n"
        "class K:\n    def m(self): pass\n    def n(self): pass\n    def _p(self): pass\n"
        "@cli.command('x')\ndef cmd(): pass\n"
        "g()\nK().n()\n"
    )
    assert dead_public_names(tree, references(tree)) == ["f (line 1)", "K.m (line 4)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_public_names(path):
    dead = dead_public_names(ast.parse(path.read_text()), ALL_REFS)
    assert not dead, f"{path.name} defines but nothing refers to: {', '.join(dead)}"


# A parameter that a function's body never reads is a setting nobody
# acts on.  The allowlist names the few that a common signature needs,
# each with its reason.
UNREAD_ALLOWED = {
    "appendix.py:suite_phi(seed)": "run_suites passes seed to every suite; this one is exact",
    "appendix.py:suite_supinf(seed)": "run_suites passes seed to every suite; this one is exact",
    "coefficients.py:CoefficientMap.eval_coords(a)": "abstract evaluator: families implement it",
    "coefficients.py:CoefficientMap.eval_coords(idx)": "abstract evaluator: families implement it",
}


def unread_parameters(tree: ast.Module) -> list[str]:
    """``qualname(param)`` for every parameter of a ``def`` (``self`` and
    ``cls`` aside) that no statement of its body reads, nested functions
    included."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = f"{owner}.{getattr(child, 'name', '')}".lstrip(".")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
                params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                read = {
                    n.id
                    for stmt in child.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend(f"{name}({p})" for p in params if p not in ("self", "cls", *read))
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, name)
            else:
                visit(child, owner)

    visit(tree, "")
    return found


def test_checker_sees_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b=1, *c, d, **e):\n    return a + e['x']\n"
        "class K:\n    def m(self, x, y):\n        def g(z):\n            return x\n        return g\n"
    )
    assert unread_parameters(tree) == ["f(b)", "f(d)", "f(c)", "K.m(y)", "K.m.g(z)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = unread_parameters(ast.parse(path.read_text()))
    unread = [u for u in unread if f"{path.name}:{u}" not in UNREAD_ALLOWED]
    assert not unread, f"{path.name} never reads: {', '.join(unread)}"


def test_unread_allowlist_is_current():
    found = {f"{p.name}:{u}" for p in MODULES for u in unread_parameters(ast.parse(p.read_text()))}
    assert set(UNREAD_ALLOWED) <= found, set(UNREAD_ALLOWED) - found
