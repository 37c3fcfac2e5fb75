from __future__ import annotations

import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_orbit_census_runs():
    proc = _run_script("orbit_census.py", "--max-rank", "3")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:4] for row in rows] == [["1", "0", "3", "3"], ["1", "1", "1", "1"],
                                         ["2", "0", "10", "10"], ["2", "1", "6", "6"],
                                         ["3", "0", "36", "36"], ["3", "1", "28", "28"]]
    assert "MISMATCH" not in proc.stdout


def test_orbit_census_top_rank():
    proc = _run_script("orbit_census.py", "--max-rank", "10")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:3] for row in rows] == [[str(r), str(a), str(2 ** (2 * r - 1) + (-1) ** a * 2 ** (r - 1))]
                                         for r in range(1, 11) for a in (0, 1)]
    assert all(row[2] == row[3] for row in rows)
    assert [row[4] for row in rows[-2:]] == ["0" * 20, "0" * 18 + "11"]
    assert "MISMATCH" not in proc.stdout
    # each cell ends under its header label; the left-aligned representative starts under it
    header, *lines = proc.stdout.splitlines()
    labels = [m.span() for m in re.finditer(r"\S+", header)]
    for line in lines:
        cells = [m.span() for m in re.finditer(r"\S+", line)]
        assert len(cells) == len(labels)
        assert [c[0] if i == 4 else c[1] for i, c in enumerate(cells)] == \
            [h[0] if i == 4 else h[1] for i, h in enumerate(labels)], line
    proc = _run_script("orbit_census.py", "--max-rank", "11")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == "orbit_census.py: error: --max-rank must lie in 1..10, got 11"


@pytest.mark.parametrize("name", ["orbit_census.py"])
def test_script_rank_guard(name):
    proc = _run_script(name, "--max-rank", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"{name}: error: --max-rank must lie in 1..10, got 0"


def test_readme_script_lines_run():
    # every `python3 scripts/...` line in a README code block names a script that runs
    commands = [shlex.split(line, comments=True)
                for block in re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
                for line in block.splitlines() if line.startswith("python3 scripts/")]
    assert commands
    for command in commands:
        assert command[0] == "python3", command
        proc = _run_script(command[1].removeprefix("scripts/"), *command[2:])
        assert proc.returncode == 0 and proc.stderr == "", command


def _mutants_module():
    spec = importlib.util.spec_from_file_location("_mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutant_catalogue_is_current():
    # the whole catalogue runs on demand (`python3 scripts/mutants.py`); here only its
    # anchors: each snippet occurs exactly once in its file under src, and each test it
    # names is defined in its test file
    mutants = _mutants_module()
    assert mutants.CATALOGUE and mutants.stale_entries() == []
    assert len({m.name for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
    for m in mutants.CATALOGUE:
        assert m.snippet != m.replacement and m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), (m.name, test)
