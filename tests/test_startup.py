"""What a CLI start imports, and the lazy package that lets it import little.

Every CLI call is a fresh interpreter.  `--version`, `--help` and a usage error
load only the package, `cli` and `limits`; the first command loads the whole
library at once, so that `perfbench/tracing.py`, which looks up each module it
wraps in `sys.modules`, finds them all.  The package itself resolves each
public name on first access.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symsplit

ROOT = Path(__file__).resolve().parent.parent
START_MODULES = ["symsplit", "symsplit.cli", "symsplit.limits"]

PUBLIC = {
    "symplectic": ["Covector", "SymplecticMatrix", "Vector", "is_symplectic", "neg_identity",
                   "phi_eval", "transvection"],
    "quadratic": ["OrbitClass", "OrbitReport", "QuadraticRefinement", "arf",
                  "enumerate_refinements", "expected_orbit_sizes", "orbit_decomposition", "qact",
                  "qdifference", "qeval", "qtranslate"],
    "cocycles": ["Cocycle", "check_cocycle_law", "coboundary_at", "minus_id_constraint",
                 "principal_at"],
    "jacobi": ["JacobiElement", "SplitVerdict", "gamma_psi_member", "include_fiber",
               "jacobi_identity", "jinv", "jmul", "reduce_modulus", "reframe", "splits"],
    "mcg": ["COEFFICIENT_ORDER", "HOMOTOPY", "SMOOTH", "ManifoldParams", "MCGModel",
            "SplittingTheoremVerdict", "aut_model", "dehn_twist", "homotopy_model",
            "pontryagin_coefficient", "splitting_theorem_verdict", "to_homotopy"],
}


def _traced_modules() -> set[str]:
    # read perfbench's list the way test_benchmark_hooks does, changing nothing there
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # METHODS wraps methods of classes in symplectic
    return {module_name for _, module_name, _ in module.FUNCTIONS} | {"symsplit.symplectic"}


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def _loaded_after(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code of one `cli.main(argv)` in a fresh interpreter, and the symsplit modules loaded."""
    code = ("import sys\nfrom symsplit import cli\ncode = cli.main(sys.argv[1:])\n"
            "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'symsplit'),"
            " file=sys.stderr)")
    proc = _fresh(code, *argv)
    exit_code, _, modules = proc.stderr.splitlines()[-1].partition(" ")
    return int(exit_code), ast.literal_eval(modules)


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["orbits"]])
def test_start_without_a_command_loads_no_library_module(argv):
    exit_code, modules = _loaded_after(argv)
    assert exit_code == (2 if argv == ["orbits"] else 0)  # orbits without --r is a usage error
    assert modules == START_MODULES


def test_first_command_loads_every_traced_module():
    exit_code, modules = _loaded_after(["orbits", "--r", "1"])
    assert exit_code == 0
    assert _traced_modules() <= set(modules)


def test_library_never_imports_the_cli():
    # under `python -m symsplit.cli` that import would compile cli a second time
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "symsplit.cli",
                           "orbits", "--r", "1"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert proc.returncode == 0 and "symsplit.jacobi" in imported
    assert "symsplit.cli" not in imported


def test_public_names_are_pinned():
    assert symsplit.__all__ == [name for names in PUBLIC.values() for name in names]


@pytest.mark.parametrize("module", PUBLIC)
def test_each_public_name_is_its_module_object(module):
    defining = importlib.import_module(f"symsplit.{module}")
    for name in PUBLIC[module]:
        assert getattr(symsplit, name) is getattr(defining, name), name


def test_package_import_loads_no_library_module():
    proc = _fresh("import sys, symsplit\n"
                  "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'symsplit'))")
    assert proc.returncode == 0 and proc.stdout == "['symsplit']\n", proc.stderr


def test_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        symsplit.no_such_name
    with pytest.raises(ImportError):
        from symsplit import no_such_name  # noqa: F401
