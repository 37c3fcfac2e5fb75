"""The names the benchmark in `perfbench/` reaches into `symsplit` by must still exist.

`perfbench/tracing.py` wraps functions and methods by name, and the workloads
import from the package; a rename would otherwise only show as a failed
`perfbench/run.py --trace 1`.  One more test checks that every command line
the workloads send is read by the CLI's plain reader.  These tests read
perfbench and change nothing in it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from symsplit.cli import _read_plain

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


def test_every_benchmark_argv_is_read_by_the_plain_reader(tmp_path, monkeypatch):
    # every timed call and warm-up skips argparse, so no benchmark number measures argparse;
    # a workload that sends another form would make argparse's own speed count again
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports `reference` from here
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert set(workloads.WORKLOADS) == {"census", "arith", "verify"}
    for name, build in workloads.WORKLOADS.items():
        batch = build(7, tmp_path)
        for call in batch.calls + batch.warmup:
            assert _read_plain(call.argv[0], call.argv[1:]) is not None, (name, call.argv)
