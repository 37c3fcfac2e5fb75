"""The names the benchmark in `perfbench/` reaches into `symsplit` by must still exist.

`perfbench/tracing.py` wraps functions and methods by name, and the workloads
import from the package; a rename would otherwise only show as a failed
`perfbench/run.py --trace 1`.  These tests read perfbench and change nothing in it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _symsplit_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("symsplit"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_traced_functions_resolve():
    for span, module_name, attr in _tracing().FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_traced_methods_resolve():
    symplectic = importlib.import_module("symsplit.symplectic")
    for span, class_name, attr in _tracing().METHODS:
        cls = getattr(symplectic, class_name, None)
        assert cls is not None and callable(cls.__dict__.get(attr)), span


def test_workload_imports_resolve():
    imports = list(_symsplit_imports())
    assert {"transvection", "transvection_candidates"} <= {name for _, _, name in imports}
    for filename, module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), (filename, module_name, name)

