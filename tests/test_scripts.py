from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_splitting_survey_runs():
    proc = _run_script("splitting_survey.py", "--max-rank", "3")
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines.count("  r=1: smooth splits, witness 00; homotopy splits, witness 00; agree yes") == 2
    assert sum("r=3: smooth no section among 64 translates" in line for line in lines) == 2
    assert "NO" not in proc.stdout


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
    assert "--max-rank must lie in 1..10" in proc.stderr


@pytest.mark.parametrize("name", ["splitting_survey.py", "orbit_census.py"])
def test_script_rank_guard(name):
    proc = _run_script(name, "--max-rank", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--max-rank must lie in 1.." in proc.stderr
