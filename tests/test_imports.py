"""Every name a module of the package or a script imports is used in it.

A name counts as used when it appears as a name anywhere in the module,
annotations included.  No annotation needs quoting (the modules have
`from __future__ import annotations`, and the package `__init__` names only
builtins); a name used only inside a quoted one counts as unused.  No module of the package imports `typing` or `pathlib`, which
every CLI start would pay for.

No function of the package calls `int()` on one of its own parameters, which
would truncate 2.5 to 2 and read "3" as 3: integer arguments go through
`symplectic._check_int`.  The readers that int() is for are the exceptions:
`symplectic._integral`, which the guard reads through, and the CLI's string
reader `_decode_int`.

Each `*_LIMIT` is assigned only in `symsplit.limits`; every other module
imports it from there.  Likewise the operand rules have one guard each: the
string "rank mismatch" is written once in the package, in
`symplectic._same_rank`, and "modulus mismatch" once, in
`Covector._compatible`; no older wording of either rule is left.

Every `lru_cache` of the package names its `maxsize`, with the reason in a
comment on the decorator's line; only a function of no arguments may keep
`maxsize=None`.
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


INT_READERS = {"symplectic.py": {"_integral"}, "cli.py": {"_decode_int"}}


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


PACKAGE = sorted((ROOT / "src" / "symsplit").glob("*.py"))
REMOVED_WORDINGS = ("ranks differ", "share rank", "base refinement rank")


def _string_literals(source: str, text: str) -> int:
    """How many string constants of the module are exactly text (docstrings that mention it do not count)."""
    return sum(isinstance(node, ast.Constant) and node.value == text for node in ast.walk(ast.parse(source)))


def test_the_check_counts_string_literals():
    source = '"""A rank mismatch."""\nraise ValueError("rank mismatch")\nx = "rank mismatch!"\n'
    assert _string_literals(source, "rank mismatch") == 1


@pytest.mark.parametrize("message", ["rank mismatch", "modulus mismatch"])
def test_each_operand_rule_is_worded_once(message):
    # one guard per rule, as for the limits: every operation that needs the rule calls that guard
    assert sum(_string_literals(path.read_text(), message) for path in PACKAGE) == 1


@pytest.mark.parametrize("wording", REMOVED_WORDINGS)
def test_no_older_wording_of_an_operand_rule_is_left(wording):
    assert [path.name for path in PACKAGE if wording in path.read_text()] == []


def _unbounded_caches(source: str) -> list[str]:
    """The functions whose `lru_cache` (or `cache`) names no maxsize, or whose decorator line has no comment.

    maxsize=None passes only on a function of no arguments, which has one entry.
    """
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        takes_arguments = any((a.posonlyargs, a.args, a.kwonlyargs, a.vararg, a.kwarg))
        for decorator in node.decorator_list:
            func = decorator.func if isinstance(decorator, ast.Call) else decorator
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) not in (
                    "lru_cache", "cache"):
                continue
            keywords = decorator.keywords if isinstance(decorator, ast.Call) else []
            maxsize = next((k.value for k in keywords if k.arg == "maxsize"), None)
            unbounded = isinstance(maxsize, ast.Constant) and maxsize.value is None and takes_arguments
            if maxsize is None or unbounded or "#" not in lines[decorator.end_lineno - 1]:
                found.append(node.name)
    return found


def test_the_check_sees_an_unbounded_cache():
    source = ("from functools import cache, lru_cache\nimport functools\n"
              "@lru_cache\ndef a(x): ...\n@lru_cache(8)  # no keyword\ndef b(x): ...\n"
              "@functools.cache  # unbounded\ndef c(x): ...\n@lru_cache(maxsize=None)  # reason\ndef d(x): ...\n"
              "@lru_cache(maxsize=4)\ndef e(x): ...\n@lru_cache(maxsize=4)  # reason\ndef f(x): ...\n"
              "@lru_cache(maxsize=None)  # one entry\ndef g(): ...\n")
    assert _unbounded_caches(source) == ["a", "b", "c", "d", "e"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_cache_states_its_bound(path):
    # each cache names its maxsize, with a comment on the decorator's line giving the reason
    assert _unbounded_caches(path.read_text()) == []
