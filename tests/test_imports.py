"""Every name a module of the package or a script imports is used in it.

`__init__.py` is left out: its imports are the package's public names.  A
name counts as used when it appears as a name anywhere in the module,
annotations included.  Every module has `from __future__ import annotations`,
so no annotation needs quoting; a name used only inside a quoted one counts
as unused.  No module of the package imports `typing` or `pathlib`, which
every CLI start would pay for.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for path in (ROOT / "src" / "symsplit").glob("*.py") if path.name != "__init__.py")
SOURCES += sorted((ROOT / "scripts").glob("*.py"))


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
