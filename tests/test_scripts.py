from __future__ import annotations

import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def _script_module(name):
    spec = importlib.util.spec_from_file_location(f"_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutant_catalogue_is_current():
    # the whole catalogue runs on demand (`python3 scripts/mutants.py`); here only its
    # anchors: each snippet occurs exactly once in its file under src, and each test it
    # names is defined in its test file
    mutants = _script_module("mutants")
    assert mutants.CATALOGUE and mutants.stale_entries() == []
    assert len({m.name for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
    for m in mutants.CATALOGUE:
        assert m.snippet != m.replacement and m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), (m.name, test)


def _checkouts(tmp_path, *names):
    for name in names:
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / name)
    return [str(tmp_path / name) for name in names]


def test_pair_driver_alternates_sides_and_summarizes_canned_runs(tmp_path, capsys):
    # canned metrics, no benchmark run: call_p50_ms is lower on the change in 4 of 5 pairs,
    # setup_s higher in all 5, and peak_rss_mb equal (a tie counts for neither side)
    bench_pairs = _script_module("bench_pairs")
    p50 = {"parent": [0.34, 0.36, 0.33, 0.35, 0.32], "change": [0.30, 0.31, 0.34, 0.29, 0.28]}
    calls = []

    def canned(checkout, workload, seed, seconds):
        side, k = checkout.name, seed - 40
        calls.append((side, seed, workload, seconds))
        return {"setup_s": 0.05 if side == "parent" else 0.06, "wall_s": 0.5 + k / 100,
                "call_p50_ms": p50[side][k], "call_p99_ms": 5.2, "peak_rss_mb": 32.0}

    argv = [*_checkouts(tmp_path, "parent", "change"), "--workload", "arith", "--pairs", "5",
            "--seconds", "6", "--seed", "40"]
    assert bench_pairs.main(argv, run=canned) == 0
    assert [(side, seed) for side, seed, _, _ in calls] == [
        ("parent", 40), ("change", 40), ("change", 41), ("parent", 41), ("parent", 42),
        ("change", 42), ("change", 43), ("parent", 43), ("parent", 44), ("change", 44)]
    assert {(workload, seconds) for _, _, workload, seconds in calls} == {("arith", 6.0)}
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[-5:]}
    assert list(rows) == ["setup_s", "wall_s", "call_p50_ms", "call_p99_ms", "peak_rss_mb"]
    assert rows["call_p50_ms"] == ["0.34", "[0.33,", "0.35]", "0.3", "[0.29,", "0.31]",
                                   "-0.04", "(-11.8%)", "yes", "4/5"]
    assert rows["setup_s"][-4:] == ["+0.01", "(+20.0%)", "yes", "0/5"]
    assert rows["peak_rss_mb"][-4:] == ["+0", "(+0.0%)", "no", "0/5"]
    assert rows["wall_s"][-4:] == ["+0", "(+0.0%)", "no", "0/5"]


def test_pair_driver_refuses_directory_names_of_unequal_length(tmp_path, capsys):
    bench_pairs = _script_module("bench_pairs")
    argv = [*_checkouts(tmp_path, "parent", "change2"), "--workload", "arith", "--pairs", "2",
            "--seconds", "1"]
    assert bench_pairs.main(argv, run=lambda *args: pytest.fail("no run may start")) == 2
    assert "differ in length" in capsys.readouterr().err


def _golden_and_element_calls(workdir):
    # a small call set: three goldens and an inv on a rank-1 document written under workdir
    cases = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text())
    doc = workdir / "shear.json"
    doc.write_text(json.dumps({"r": 1, "modulus": 0, "x": [0, 3], "A": [[1, 2], [0, 1]]}))
    return [tuple(cases[name]["argv"]) for name in ("coeff_jmax_6", "orbits_r_2_table", "orbits_r_2")] + [
        ("inv", "--lhs", str(doc), "--psi", "11")]


def test_output_digest_matches_a_tree_and_tells_a_mutant_apart(tmp_path, capsys):
    # the whole call set runs on demand (`python3 scripts/output_digest.py PARENT CHANGE`);
    # here a small one: the tree against itself, then against a copy with mutant M4, which
    # sends a JSON orbits call down the table branch
    digest = _script_module("output_digest")
    m4 = next(m for m in _script_module("mutants").CATALOGUE if m.name == "M4")
    shutil.copytree(ROOT / "src", tmp_path / "mutant" / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "mutant" / m4.file
    path.write_text(path.read_text().replace(m4.snippet, m4.replacement))

    assert digest.main([str(ROOT), str(ROOT)], build=_golden_and_element_calls) == 0
    out, err = capsys.readouterr()
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert list(rows) == ["coeff", "orbits", "inv", "(all)"] and err == ""
    assert [row[0] for row in rows.values()] == ["1", "2", "1", "4"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", row[1]) and row[2] == "same" for row in rows.values())

    assert digest.main([str(ROOT), str(tmp_path / "mutant")], build=_golden_and_element_calls) == 1
    mutant_out, err = capsys.readouterr()
    mutant_rows = {line.split()[0]: line.split()[1:] for line in mutant_out.splitlines()[1:]}
    assert mutant_rows["coeff"] == rows["coeff"] and mutant_rows["inv"] == rows["inv"]
    assert mutant_rows["orbits"][1] == rows["orbits"][1] != mutant_rows["orbits"][2]
    assert err == "1 of 4 calls differ; the first differing call: orbits --r 2 --format json\n"
    assert digest.main([str(tmp_path / "absent")]) == 2
