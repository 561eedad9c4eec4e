"""Every name a ``conespde`` module imports is used in that module,
every private module-level name is used somewhere in the package, every
public function, class and method is reached from a module of the
package (the ``__init__`` re-exports aside), the benchmark or the
acceptance tests, every function reads each of its parameters, every
JSON dump refuses NaN, no module builds a ``CallableMap`` or calls
``np.unique``, and no module but ``errors`` checks a parameter's
finiteness or zero bound by hand.  A public name that only its own tests
call is dead code.

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


# ``CallableMap`` runs user code one state at a time.  It is left for
# code outside the package: every operator the package composes with a
# map is a map family that evaluates a whole batch per call, so no
# module may build one.
CALLABLE_MAP = "CallableMap"


def callable_map_calls(tree: ast.Module) -> list[int]:
    """Lines calling ``CallableMap(...)``, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == CALLABLE_MAP)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == CALLABLE_MAP)
        )
    )


def test_checker_sees_a_callable_map_call():
    tree = ast.parse(
        "m = CallableMap(f, 2)\nn = coefficients.CallableMap(g, 3)\n"
        "class CallableMap:\n    pass\nx = isinstance(m, CallableMap)\n"
    )
    assert callable_map_calls(tree) == [1, 2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_callable_map_in_the_package(path):
    lines = callable_map_calls(ast.parse(path.read_text()))
    assert not lines, f"{path.name} calls {CALLABLE_MAP} on lines {lines}"


# ``np.unique`` imports ``numpy.ma`` on its first call, about 12 ms and
# 1 MB for every command that reaches it; the package sorts and dedupes
# integer indices with ``coefficients._unique`` instead.
def np_unique_calls(tree: ast.Module) -> list[int]:
    """Lines calling ``np.unique``/``numpy.unique``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    )


def test_checker_sees_an_np_unique_call():
    tree = ast.parse(
        "a = np.unique(x)\nb = numpy.unique(y, return_counts=True)\n"
        "c = _unique(z)\nd = pd.unique(w)\nf = np.unique\n"
    )
    assert np_unique_calls(tree) == [1, 2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_np_unique_in_the_package(path):
    lines = np_unique_calls(ast.parse(path.read_text()))
    assert not lines, f"{path.name} calls np.unique (which imports numpy.ma) on lines {lines}"


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


# A public function, class or method is dead code unless something that
# serves a command, the benchmark or an AC line reaches it: a module of
# the package other than ``__init__`` (whose re-exports reach nothing),
# a ``perfbench`` script, or the acceptance tests.  A name that only its
# own tests call is dead too.  Click commands are reached through the
# ``@cli.command`` that registers them, and are exempt.  The reach check
# goes by name, not by owner: a method stays alive when anything of the
# same name is referred to (``ConeSpec.dim`` by any ``.dim``), so such
# methods need a look by hand.  The allowlist
# names the public names kept for a consumer outside those files, each
# with its reason.
REACH_ALLOWED = {
    "coefficients.py:CallableMap": "the entry point for user code with no closed form, "
    "and the opaque reference in the kernel parity tests",
    "approx.py:sup_inf_map": "its consumers are the planned supinf config form and chain suite",
}


def consumers(root: Path) -> list[Path]:
    """The files whose references keep a public name of ``root``'s
    package alive."""
    package = root / "src" / "conespde"
    return [
        *sorted(p for p in package.glob("*.py") if p.name != "__init__.py"),
        *sorted(root.glob("perfbench/*.py")),
        root / "tests" / "test_acceptance.py",
    ]


def reached_names(root: Path) -> set[str]:
    return set().union(*(references(ast.parse(p.read_text())) for p in consumers(root)))


ROOT = PACKAGE.parent.parent
REACHED = reached_names(ROOT)


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


def test_checker_sees_a_name_only_tests_reach(tmp_path):
    # f is re-exported and called by its own test only; g reaches an AC
    # line and h the benchmark
    files = {
        "src/conespde/__init__.py": "from .m import f, g, h\n",
        "src/conespde/m.py": "def f(): pass\ndef g(): pass\ndef h(): pass\n",
        "tests/test_m.py": "from conespde.m import f\nf()\n",
        "tests/test_acceptance.py": "from conespde.m import g\n",
        "perfbench/run.py": "import conespde.m as m\nm.h()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    tree = ast.parse(files["src/conespde/m.py"])
    assert dead_public_names(tree, reached_names(tmp_path)) == ["f (line 1)"]


def unreached(path: Path) -> list[str]:
    """``file:qualname`` of every public name in ``path`` that nothing
    reaches, allowlisted or not."""
    dead = dead_public_names(ast.parse(path.read_text()), REACHED)
    return [f"{path.name}:{d.split()[0]}" for d in dead]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_public_names(path):
    dead = [d for d in unreached(path) if d not in REACH_ALLOWED]
    assert not dead, f"no command, benchmark or AC line reaches: {', '.join(dead)}"


def test_reach_allowlist_is_current():
    found = {d for p in PACKAGE.glob("*.py") for d in unreached(p)}
    assert set(REACH_ALLOWED) <= found, set(REACH_ALLOWED) - found


# Every JSON document the package writes or prints is strict JSON: a
# NaN or an infinity must raise (or be turned into null first) instead
# of becoming a ``NaN`` token that strict parsers reject.


def lenient_json_dumps(tree: ast.Module) -> list[int]:
    """Lines of ``json.dump``/``json.dumps``/``json.JSONEncoder`` calls
    that do not pass ``allow_nan=False``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps", "JSONEncoder")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and not any(
            k.arg == "allow_nan" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in node.keywords
        )
    )


def test_checker_sees_a_lenient_json_dump():
    tree = ast.parse(
        "json.dumps(a)\njson.dumps(b, allow_nan=False)\n"
        "json.dump(c, f, allow_nan=True)\nx = dumps(d)\n"
        "json.JSONEncoder(indent=2).encode(e)\njson.JSONEncoder(allow_nan=False)\n"
    )
    assert lenient_json_dumps(tree) == [1, 3, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_json_is_strict(path):
    lines = lenient_json_dumps(ast.parse(path.read_text()))
    assert not lines, f"{path.name} dumps JSON without allow_nan=False on lines {lines}"


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


# A parameter default that no consumer call overrides is a setting that
# only tests set: it belongs in a module constant.  A dataclass's init
# fields are its class's parameters, and a field with a default counts
# as a defaulted parameter unless it is a ``config_field`` (a config
# document sets those).  Consumers are the files of the reach rule
# (``consumers``); a call overrides a default when it passes that
# parameter by keyword or by position, a starred argument passing every
# position and ``**`` every keyword.  Calls are matched by the name they
# use (the class name for ``__init__``, and for ``cls(...)`` in one of the
# class's own classmethods), so a function called through a variable or
# a table is never matched.  The allowlist names the defaults overridden
# that way or kept for callers outside those files, each with its reason.
_SUITE_SEED = "run_suites dispatches every suite as SUITES[name](seed=seed)"
DEFAULT_ALLOWED = {
    **{f"appendix.py:suite_{name}(seed)": _SUITE_SEED
       for name in ("phi", "retraction", "supinf", "mollify", "rho")},
    "simulate.py:run_ensemble(first_path)": "the seeding contract's one-path regeneration, "
    "run_ensemble(..., paths=1, first_path=p), for code outside the package",
    "approx.py:SearchSpec(radius)": "SearchRadiusError.suggested_radius asks the caller "
    "to retry with a given radius",
}


def _called_name(node: ast.expr) -> str | None:
    """The name a call or decorator uses: a bare name or an attribute's."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def defaulted_fields(node: ast.ClassDef, owner: str) -> list[tuple[str, str, int, str]]:
    """``defaulted_parameters``' entries for the init fields of the
    dataclass ``node`` that have a default and are not ``config_field``s,
    the qualname being the class's."""
    if not any(_called_name(d) == "dataclass" for d in node.decorator_list):
        return []
    found = []
    position = 0
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _called_name(value) == "field":
            kwargs = {k.arg: k.value for k in value.keywords}
            if getattr(kwargs.get("init"), "value", True) is False:
                continue
            default = "default" in kwargs or "default_factory" in kwargs
        else:
            default = value is not None and not (
                isinstance(value, ast.Call) and _called_name(value) == "config_field"
            )
        if default:
            found.append((f"{owner}{node.name}", node.name, position, stmt.target.id))
        position += 1
    return found


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None, str]]:
    """``(qualname, callee, position, parameter)`` for every parameter
    with a default.  ``callee`` is the name a call uses (the class for
    ``__init__``) and ``position`` the index of a positional argument,
    a method's first parameter aside (None for a keyword-only one)."""
    found = []

    def visit(body: list[ast.stmt], owner: str, cls_name: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                found.extend(defaulted_fields(node, owner))
                visit(node.body, f"{owner}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [*a.posonlyargs, *a.args]
                if cls_name is not None:
                    positional = positional[1:]  # self or cls
                callee = cls_name if node.name == "__init__" else node.name
                qualname = f"{owner}{node.name}"
                first = len(positional) - len(a.defaults)
                for i, p in enumerate(positional[first:], start=first):
                    found.append((qualname, callee, i, p.arg))
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        found.append((qualname, callee, None, p.arg))
                visit(node.body, f"{qualname}.", None)

    visit(tree.body, "", None)
    return found


def passed_arguments(root: Path) -> set[tuple[str, int | str]]:
    """``(callee, position or keyword)`` for every argument a consumer's
    call passes to a callee named by a bare name or an attribute; a
    ``cls(...)`` call in a classmethod passes them to its class too."""
    passed = set()

    def add(name: str, call: ast.Call) -> None:
        for i, arg in enumerate(call.args):
            passed.add((name, "*" if isinstance(arg, ast.Starred) else i))
        passed.update((name, k.arg or "**") for k in call.keywords)

    for path in consumers(root):
        for node in ast.walk(ast.parse(path.read_text())):
            name = _called_name(node) if isinstance(node, ast.Call) else None
            if name is not None:
                add(name, node)
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    decorators = getattr(method, "decorator_list", ())
                    if any(_called_name(d) == "classmethod" for d in decorators):
                        for call in ast.walk(method):
                            if isinstance(call, ast.Call) and _called_name(call) == "cls":
                                add(node.name, call)
    return passed


def unoverridden_defaults(path: Path, passed: set[tuple[str, int | str]]) -> list[str]:
    """``file:qualname(param)`` of every default in ``path`` that no call
    in ``passed`` overrides, allowlisted or not."""
    found = []
    for qualname, callee, i, param in defaulted_parameters(ast.parse(path.read_text())):
        keys = {(callee, param), (callee, "**")}
        if i is not None:
            keys |= {(callee, i), (callee, "*")}
        if not keys & passed:
            found.append(f"{path.name}:{qualname}({param})")
    return found


def test_checker_sees_a_default_only_tests_set(tmp_path):
    # f(b) is set only by its own test and K.m(y) by nobody; the AC line,
    # the benchmark and the package override the rest
    files = {
        "src/conespde/__init__.py": "from .m import f, g, K\n",
        "src/conespde/m.py": (
            "def f(a, b=1, *, c=2): pass\n"
            "def g(x=0, y=0): pass\n"
            "def h(*args): g(*args)\n"
            "class K:\n"
            "    def __init__(self, z=0): pass\n"
            "    def m(self, y=1): pass\n"
        ),
        "tests/test_m.py": "from conespde.m import f\nf(1, 2)\n",
        "tests/test_acceptance.py": "from conespde.m import f\nf(1, c=3)\n",
        "perfbench/run.py": "import conespde.m as m\nm.K(z=1).m()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    passed = passed_arguments(tmp_path)
    found = unoverridden_defaults(tmp_path / "src/conespde/m.py", passed)
    assert found == ["m.py:f(b)", "m.py:K.m(y)"]


def test_checker_sees_a_field_default_only_tests_set(tmp_path):
    # D's a has no default, c is a config field and e no init field;
    # D.make's cls(...) sets b, the benchmark f, and nobody d or E's x
    files = {
        "src/conespde/__init__.py": "from .m import D, E\n",
        "src/conespde/m.py": (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class D:\n"
            "    a: int\n"
            "    b: int = 1\n"
            "    c: int = config_field(read_int, default=0)\n"
            "    d: list = field(default_factory=list)\n"
            "    e: int = field(default=0, init=False)\n"
            "    f: int = 2\n"
            "    @classmethod\n"
            "    def make(cls): return cls(0, 1)\n"
            "@dataclass\n"
            "class E:\n"
            "    x: int = 0\n"
        ),
        "tests/test_m.py": "from conespde.m import D, E\nD(0, d=[], f=1)\nE(x=1)\n",
        "tests/test_acceptance.py": "",
        "perfbench/run.py": "import conespde.m as m\nm.D(0, f=3)\nm.E()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    passed = passed_arguments(tmp_path)
    found = unoverridden_defaults(tmp_path / "src/conespde/m.py", passed)
    assert found == ["m.py:D(d)", "m.py:E(x)"]


PASSED = passed_arguments(ROOT)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_default_is_overridden(path):
    found = [d for d in unoverridden_defaults(path, PASSED) if d not in DEFAULT_ALLOWED]
    assert not found, f"no consumer sets these defaults, so they are constants: {', '.join(found)}"


def test_default_allowlist_is_current():
    found = {d for p in MODULES for d in unoverridden_defaults(p, PASSED)}
    assert set(DEFAULT_ALLOWED) <= found, set(DEFAULT_ALLOWED) - found


# The numbers and arrays of the direct API are checked by the rules of
# ``errors`` (``require_int``, ``require_float``, ``require_array``), one
# rule per field type.  A ``math.isfinite`` or ``np.isfinite`` call on a
# bare parameter, or on ``self.<field>`` in ``__post_init__``, is such a
# check written by hand.  The allowlist names the calls that test data,
# not a parameter's validity, each with its reason.
FINITE_ALLOWED = {
    "cli.py:_strict(doc)": "writes a non-finite output number as null",
    "coefficients.py:_finite(vals)": "checks evaluated map values and raises NumericError",
    "space.py:cone_contains(a)": "membership: a state with a non-finite entry is outside the cone",
}


def _isfinite_arg(node: ast.AST) -> ast.expr | None:
    """The argument of a ``math.isfinite``/``np.isfinite`` call, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "isfinite"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("math", "np", "numpy")
        and node.args
    ):
        return node.args[0]
    return None


def hand_finite_checks(tree: ast.Module) -> list[str]:
    """``qualname(arg)`` for every ``math.isfinite``/``np.isfinite`` call
    on a parameter of the enclosing function, or on ``self.<field>``
    inside a ``__post_init__``, nested functions included."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = f"{owner}.{getattr(child, 'name', '')}".lstrip(".")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)} - {"self"}
                for arg in filter(None, map(_isfinite_arg, ast.walk(child))):
                    if isinstance(arg, ast.Name) and arg.id in params:
                        found.append(f"{name}({arg.id})")
                    elif (
                        child.name == "__post_init__"
                        and isinstance(arg, ast.Attribute)
                        and isinstance(arg.value, ast.Name)
                        and arg.value.id == "self"
                    ):
                        found.append(f"{name}(self.{arg.attr})")
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, name)
            else:
                visit(child, owner)

    visit(tree, "")
    return found


def test_checker_sees_a_hand_finite_check():
    # the parent's forms: a helper's parameter, a function's parameter
    # and a field in __post_init__; a local, a wrapped field and a field
    # outside __post_init__ are not parameters
    tree = ast.parse(
        "def _check_width(name, value):\n"
        "    if not (math.isfinite(value) and value > 0):\n        raise E\n"
        "def retract(a, n):\n    m = n\n    return np.isfinite(m), math.isfinite(n)\n"
        "class SearchSpec:\n"
        "    def __post_init__(self):\n"
        "        if self.radius is not None and not math.isfinite(self.radius):\n"
        "            raise E\n"
        "        np.isfinite(np.abs(self.lipschitz))\n"
        "    def m(self, b):\n        return np.isfinite(self.radius), numpy.isfinite(b)\n"
    )
    assert hand_finite_checks(tree) == [
        "_check_width(value)", "retract(n)", "SearchSpec.__post_init__(self.radius)",
        "SearchSpec.m(b)",
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in MODULES if p.name != "errors.py"), ids=lambda p: p.name
)
def test_no_hand_finite_checks(path):
    found = [f for f in hand_finite_checks(ast.parse(path.read_text()))
             if f"{path.name}:{f}" not in FINITE_ALLOWED]
    assert not found, f"{path.name} checks finiteness by hand, not by an errors rule: {found}"


def test_finite_allowlist_is_current():
    found = {f"{p.name}:{f}" for p in MODULES for f in hand_finite_checks(ast.parse(p.read_text()))}
    assert set(FINITE_ALLOWED) <= found, set(FINITE_ALLOWED) - found


# The bounds of the direct API's numbers (``>= 0``, ``> 0``) belong to
# ``require_int``/``require_float``, which check the type too: a
# hand-written ``if seed < 0: raise`` lets ``True`` and ``1.5`` through
# and fails on ``None`` with a raw ``TypeError``.  The isfinite rule
# above cannot see such a bound.  A cap other than zero (``n > 3``) is
# a limit of what the code can do, not a field's bound.  A value that a
# config rule (``read_int``, ``read_float``, ...) has just read is such a
# field too, and so is its positive form ``n < 1``.


def _is_number(node: ast.expr, value: int) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == value


def _zero_compared(test: ast.expr, params: set[str]) -> list[str]:
    """Parameters that ``test`` compares with the literal 0 or 0.0, or
    bounds below by 1 (``n < 1``, ``1 > n``)."""
    found = []
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            positive = len(operands) == 2 and (
                isinstance(node.ops[0], ast.Lt) and _is_number(operands[1], 1)
                or isinstance(node.ops[0], ast.Gt) and _is_number(operands[0], 1)
            )
            if positive or any(_is_number(o, 0) for o in operands):
                found += [o.id for o in operands if isinstance(o, ast.Name) and o.id in params]
    return found


def _read_locals(fn: ast.AST) -> set[str]:
    """Names that ``fn`` assigns from an expression calling a ``read_*``
    config rule, by name or as an attribute."""
    found = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
            isinstance(c, ast.Call)
            and getattr(c.func, "id", getattr(c.func, "attr", "")).startswith("read_")
            for c in ast.walk(node.value)
        ):
            found |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return found


def hand_zero_bounds(tree: ast.Module) -> list[str]:
    """``qualname(name)`` for every ``if`` that compares a parameter of
    the enclosing function, or a local it reads by a config rule, with
    the literal 0 (or bounds it below by 1) and whose body raises, nested
    functions included."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = f"{owner}.{getattr(child, 'name', '')}".lstrip(".")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)} - {"self"}
                params |= _read_locals(child)
                for branch in ast.walk(child):
                    if isinstance(branch, ast.If) and any(
                        isinstance(n, ast.Raise) for stmt in branch.body for n in ast.walk(stmt)
                    ):
                        found.extend(f"{name}({p})" for p in _zero_compared(branch.test, params))
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, name)
            else:
                visit(child, owner)

    visit(tree, "")
    return found


def test_checker_sees_a_hand_zero_bound():
    # the parent's form (seed < 0) and a bound in a compound test are
    # flagged; a cap at 3, a local, a bound that does not raise and a
    # boolean literal are not
    tree = ast.parse(
        "def run_suites(selector, seed=0):\n    if seed < 0:\n        raise E\n"
        "def g(n, x, y):\n"
        "    if n > 3:\n        raise E\n"
        "    if n is None or 0.0 >= x:\n        raise E\n"
        "    m = n\n    if m < 0:\n        raise E\n"
        "    if y < 0:\n        return 1\n"
        "    if y == False:\n        raise E\n"
    )
    assert hand_zero_bounds(tree) == ["run_suites(seed)", "g(x)"]


def test_checker_sees_a_hand_bound_on_a_read_value():
    # the parent's from_dict forms: a value a config rule has read (by
    # name, or through a conditional and a module), bounded by hand with
    # 0 or as a positive integer; a local the rules did not read, and a
    # cap at 1, are not
    tree = ast.parse(
        "def from_dict(cls, doc):\n"
        "    dim = read_int('space.dim', doc['dim'])\n"
        "    if dim < 1:\n        raise E\n"
        "    tol = doc.get('tol')\n"
        "    tol = None if tol is None else errors.read_float('tol', tol)\n"
        "    if tol is not None and tol <= 0:\n        raise E\n"
        "    n = len(doc)\n"
        "    if n < 0:\n        raise E\n"
        "    if dim > 1:\n        raise E\n"
    )
    assert hand_zero_bounds(tree) == ["from_dict(dim)", "from_dict(tol)"]


@pytest.mark.parametrize(
    "path", sorted(p for p in MODULES if p.name != "errors.py"), ids=lambda p: p.name
)
def test_no_hand_zero_bounds(path):
    found = hand_zero_bounds(ast.parse(path.read_text()))
    assert not found, f"{path.name} checks a zero bound by hand, not by an errors rule: {found}"
