from __future__ import annotations

import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


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
