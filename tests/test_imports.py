"""Every name a module of the package or a script imports is used in it.

A name counts as used when it appears as a name anywhere in the module,
annotations included.  No annotation needs quoting (the modules have
`from __future__ import annotations`, and the package `__init__` names only
builtins); a name used only inside a quoted one counts as unused.  No module of the package imports `typing` or `pathlib`, which
every CLI start would pay for.

No function of the package calls `int()` on one of its own parameters, which
would truncate 2.5 to 2 and read "3" as 3: integer arguments go through
`symplectic._check_int`.  The readers that int() is for are the exceptions:
`symplectic._integral`, which the guard reads through, and the two string
readers of the CLI, `_decode_int` and `_parse_psi`.

Each `*_LIMIT` is assigned only in `symsplit.limits`; every other module
imports it from there.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "symsplit").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport json.decoder\nimport re as regex\nprint(sep, json)\n"
    assert _unused_imports(source) == ["path", "regex"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _imported_modules(source: str) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module)
    return modules


def test_the_check_sees_a_module_import():
    source = "import typing as t\nfrom pathlib import Path\nfrom .symplectic import Vector\n"
    assert _imported_modules(source) == {"typing", "pathlib"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "symsplit").glob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_package_imports_neither_typing_nor_pathlib(path):
    assert not {"typing", "pathlib"} & _imported_modules(path.read_text())


INT_READERS = {"symplectic.py": {"_integral"}, "cli.py": {"_decode_int", "_parse_psi"}}


def _int_calls_on_parameters(source: str) -> list[str]:
    """The module functions and methods that call int() on one of their own parameters, by name."""
    tree = ast.parse(source)
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
    found = []
    for name, function in functions:
        a = function.args
        params = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
               and any(isinstance(arg, ast.Name) and arg.id in params for arg in node.args)
               for node in ast.walk(function)):
            found.append(name)
    return found


def test_the_check_sees_an_int_call_on_a_parameter():
    source = ("def f(x, *, m):\n    return int(len(x)) + int('3') + int(m)\n"
              "def g(y):\n    def inner():\n        return int(y)\n    return inner\n"
              "class C:\n    def scale(self, k):\n        k = int(k)\n"
              "    def read(self):\n        return int(self.k) + int(True)\n")
    assert _int_calls_on_parameters(source) == ["f", "g", "C.scale"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "symsplit").glob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_int_call_truncates_a_parameter(path):
    found = set(_int_calls_on_parameters(path.read_text()))
    assert found <= INT_READERS.get(path.name, set()), sorted(found)


def _limit_assignments(source: str) -> list[str]:
    """The `*_LIMIT` names a module binds by assignment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        for target in targets:
            found += [n.id for n in ast.walk(target)
                      if isinstance(n, ast.Name) and n.id.endswith("_LIMIT")]
    return found


def test_the_check_sees_a_limit_assignment():
    source = ("A_LIMIT = 1\nB_LIMIT: int = 2\nC_LIMIT += 1\nD_LIMIT, x = 3, 4\n"
              "def f():\n    E_LIMIT = 5\nfrom .limits import F_LIMIT\nprint(F_LIMIT)\n")
    assert sorted(_limit_assignments(source)) == ["A_LIMIT", "B_LIMIT", "C_LIMIT", "D_LIMIT", "E_LIMIT"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_each_limit_is_defined_only_in_limits(path):
    # one source of truth: every other module imports its limits from symsplit.limits
    assert path.name == "limits.py" or _limit_assignments(path.read_text()) == []
