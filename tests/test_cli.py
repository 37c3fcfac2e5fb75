from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from symsplit import jacobi, quadratic, symplectic, verify
from symsplit.cli import (_HANDLERS, ELEMENT_RANK_LIMIT, _decode_int, _library, _parse_psi,
                          _read_plain, build_parser, element_from_document, element_to_document, main)
from symsplit.jacobi import JacobiElement, jacobi_identity, jmul, splits
from symsplit.mcg import splitting_theorem_verdict
from symsplit.quadratic import QuadraticRefinement, orbit_decomposition
from symsplit.symplectic import Covector, SymplecticMatrix, Vector, transvection
from symsplit.verify import VERIFY_SAMPLES_LIMIT, run_suites

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())
INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)
INT64_BOUNDARY = (INT64_MAX, INT64_MAX + 1, INT64_MIN, INT64_MIN - 1)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_element(path, g):
    path.write_text(json.dumps(element_to_document(g)))
    return str(path)


def _identity_document(r):
    n = 2 * r
    return {"r": r, "modulus": 0, "x": [0] * n, "A": [[int(i == j) for j in range(n)] for i in range(n)]}


def test_orbits_table(capsys):
    code, out, err = _run(capsys, "orbits", "--r", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("orbits  r=2")
    assert lines[1] == "arf  size  expected  representative"
    assert lines[2].split() == ["0", "10", "10", "0000"]
    assert lines[3].split() == ["1", "6", "6", "0011"]
    assert lines[-1] == "formulas: PASS"


def test_orbits_json_schema_and_determinism(capsys):
    code, out1, _ = _run(capsys, "orbits", "--r", "1", "--format", "json")
    assert code == 0
    code, out2, _ = _run(capsys, "orbits", "--r", "1", "--format", "json")
    assert out1 == out2  # byte-identical reruns
    report = json.loads(out1)
    assert report["command"] == "orbits"
    assert report["parameters"] == {"r": 1}
    assert report["seed"] is None and "version" in report
    res = report["results"]
    assert res["pass"] is True and res["expected_sizes"] == [3, 1]
    assert res["orbits"][0] == {"arf": 0, "size": 3, "representative": [0, 0]}
    assert res["orbits"][1] == {"arf": 1, "size": 1, "representative": [1, 1]}
    assert out1 == json.dumps(report, sort_keys=True) + "\n"


def _assert_columns_line_up(header, rows, left):
    """Every cell ends where its header label ends, or starts where it starts for the columns in left."""
    labels = [m.span() for m in re.finditer(r"\S+", header)]
    for row in rows:
        cells = [m.span() for m in re.finditer(r"\S+", row)]
        assert len(cells) == len(labels), (header, row)
        for i, (label, cell) in enumerate(zip(labels, cells)):
            if i in left:
                assert cell[0] == label[0], (header, row)
            else:
                assert cell[1] == label[1], (header, row)


@pytest.mark.parametrize("r", [1, 8, 10])
def test_orbits_columns_line_up(capsys, r):
    code, out, err = _run(capsys, "orbits", "--r", str(r))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 5 and lines[-1] == "formulas: PASS"
    _assert_columns_line_up(lines[1], lines[2:-1], left={3})


def test_orbits_rank_guard(capsys):
    # every accepted rank: the sizes are the closed formulas 2^(2r-1) +- 2^(r-1)
    for r in range(1, 11):
        code, out, err = _run(capsys, "orbits", "--r", str(r), "--format", "json")
        assert code == 0 and err == ""
        results = json.loads(out)["results"]
        assert results["pass"] is True
        sizes = [2 ** (2 * r - 1) + (-1) ** a * 2 ** (r - 1) for a in (0, 1)]
        assert [(c["arf"], c["size"]) for c in results["orbits"]] == list(zip((0, 1), sizes))
        assert results["expected_sizes"] == sizes
    # rank 10's representatives: each class's lexicographically least refinement
    assert [c["representative"] for c in results["orbits"]] == [[0] * 20, [0] * 18 + [1, 1]]
    code, out, err = _run(capsys, "orbits", "--r", "11")
    assert code == 2 and out == ""
    assert "1..10" in err


def _split_layout(capsys, *argv):
    """The set of row layouts of a split table: per cell, its anchor less its header label's.

    The anchor is the end for the right-aligned modulus column and the start
    for the others.
    """
    code, out, err = _run(capsys, "split", *argv)
    assert code == 0 and err == ""
    header, *rows = out.splitlines()[1:4]
    labels = [m.span() for m in re.finditer(r"\S+", header)]
    layouts = set()
    for row in rows:
        cells = [m.span() for m in re.finditer(r"\S+", row)]
        assert len(cells) == len(labels), (header, row)
        layouts.add(tuple(c[1] - h[1] if i == 1 else c[0] - h[0]
                          for i, (h, c) in enumerate(zip(labels, cells))))
    return layouts


@pytest.mark.parametrize("argv", [("--p", "7", "--r", "31"), ("--p", "3", "--r", "1"),
                                  ("--p", "3", "--r", "2"), ("--p", "7", "--r", "1")])
def test_split_columns_line_up(capsys, argv):
    # every cell sits under its header, with a witness or a dash and either modulus
    assert _split_layout(capsys, *argv) == {(0, 0, 0, 0)}


def test_readme_sample_output(capsys):
    # each `$ symsplit ...` line in a README code block is followed by its exact stdout
    samples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, expected = command.partition("\n")
            samples.append((shlex.split(line), expected))
    assert samples
    for argv, expected in samples:
        assert argv[0] == "symsplit"
        code, out, err = _run(capsys, *argv[1:])
        assert (code, out, err) == (0, expected, ""), argv


def test_readme_library_block(capsys):
    # README's "Library in five lines" block runs and does what its comments say
    block = re.search(r"^## Library in five lines\n+```python\n(.*?)^```",
                      (ROOT / "README.md").read_text(), re.M | re.S).group(1)
    for claim in ("# orbit sizes 36 and 28, Arf labels 0 and 1", "witness covector (0, 0)", "# 16"):
        assert claim in block
    names = {}
    exec(block, names)
    assert capsys.readouterr().out == "16\n"
    assert [(c.arf_label, c.size) for c in names["report"].orbits] == [(0, 36), (1, 28)]
    verdict = names["verdict"]
    assert verdict.splits and verdict.witness.coords == (0, 0)
    t = transvection(Vector.u(1, 1))
    s = transvection(Vector.v(1, 1))
    sigma = names["sigma"]
    assert jmul(sigma(t), sigma(s)) == sigma(t * s) and sigma(t).a == t


def test_split_table_rank_one(capsys):
    code, out, err = _run(capsys, "split", "--p", "3", "--r", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("split  p=3  r=1")
    assert lines[1] == "flavor    modulus  splits  witness"
    assert lines[2].split() == ["smooth", "0", "yes", "00"]
    assert lines[3].split() == ["homotopy", "24", "yes", "00"]
    assert lines[4:] == ["section: A -> (x.A - x, A) for x any lift of the witness"]


def test_split_table_rank_two_certificate(capsys):
    code, out, _ = _run(capsys, "split", "--p", "7", "--r", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[2].split() == ["smooth", "0", "no", "-"]
    assert lines[3].split() == ["homotopy", "240", "no", "-"]
    # one candidate is checked, so the table prints why it fails, not a count of translates
    assert lines[4:] == ["obstruction: a fixed translate is 1 at every u_i and v_i,"
                         " but all ones, the only such refinement, is 0 at u1 + u2"]


def test_split_json(capsys):
    code, out, _ = _run(capsys, "split", "--p", "3", "--r", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["parameters"] == {"p": 3, "r": 2}
    smooth, homotopy = report["results"]["smooth"], report["results"]["homotopy"]
    assert smooth["splits"] is False and smooth["modulus"] == 0
    assert smooth["witness"] is None and smooth["candidates_checked"] == 16
    assert homotopy["modulus"] == 24
    assert report["results"]["verdicts_agree"] is True
    code, out, _ = _run(capsys, "split", "--p", "3", "--r", "1", "--format", "json")
    smooth = json.loads(out)["results"]["smooth"]
    assert smooth["splits"] is True and smooth["witness"] == [0, 0]
    assert smooth["fixed_refinement"] == [1, 1]
    assert smooth["section"] == "A -> (x.A - x, A) for x any lift of witness"


@pytest.mark.parametrize("p", [3, 7])
def test_split_json_models_differ_only_in_modulus(capsys, p):
    # both blocks come from one verdict: the homotopy block is the smooth one at modulus 2c
    for r in range(1, 32):
        code, out, _ = _run(capsys, "split", "--p", str(p), "--r", str(r), "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        smooth, homotopy = res["smooth"], res["homotopy"]
        assert (smooth.pop("modulus"), homotopy.pop("modulus")) == (0, {3: 24, 7: 240}[p])
        assert smooth == homotopy


def test_split_rank_guard(capsys):
    # the limit is set by output size: 4^31 is the largest candidate count that is a 64-bit JSON int
    code, out, err = _run(capsys, "split", "--p", "3", "--r", "31", "--format", "json")
    assert code == 0 and err == ""
    res = json.loads(out)["results"]
    for flavor in ("smooth", "homotopy"):
        assert res[flavor]["splits"] is False
        assert type(res[flavor]["candidates_checked"]) is int
        assert res[flavor]["candidates_checked"] == 4 ** 31
    code, out, err = _run(capsys, "split", "--p", "3", "--r", "32")
    assert code == 2 and out == "" and "1..31" in err


def test_mul_round_trip(tmp_path, capsys):
    t = transvection(Vector.u(1, 1))
    g = JacobiElement(Covector((2, 3), 24), t)
    h = JacobiElement(Covector((5, 0), 24), t.inverse())
    lhs = _write_element(tmp_path / "g.json", g)
    rhs = _write_element(tmp_path / "h.json", h)
    code, out, err = _run(capsys, "mul", "--lhs", lhs, "--rhs", rhs)
    assert code == 0 and err == ""
    assert element_from_document(json.loads(out)) == jmul(g, h)
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_inv_round_trip(tmp_path, capsys):
    g = JacobiElement(Covector((7, 11), 24), transvection(Vector((1, 1))))
    doc = _write_element(tmp_path / "g.json", g)
    code, out, _ = _run(capsys, "inv", "--lhs", doc)
    assert code == 0
    gi = element_from_document(json.loads(out))
    assert gi == g.inverse()
    inv_doc = _write_element(tmp_path / "gi.json", gi)
    code, out, _ = _run(capsys, "mul", "--lhs", doc, "--rhs", inv_doc)
    back = element_from_document(json.loads(out))
    assert back.x.is_zero() and back.a == SymplecticMatrix.identity(1)


def test_mul_membership_pass_and_violation(tmp_path, capsys):
    member = JacobiElement(Covector((2, 0), 24), SymplecticMatrix.identity(1))
    outsider = JacobiElement(Covector((1, 0), 24), SymplecticMatrix.identity(1))
    m1 = _write_element(tmp_path / "m1.json", member)
    m2 = _write_element(tmp_path / "m2.json", member)
    bad = _write_element(tmp_path / "bad.json", outsider)
    code, out, err = _run(capsys, "mul", "--lhs", m1, "--rhs", m2, "--psi", "00")
    assert code == 0 and err == ""
    code, out, err = _run(capsys, "mul", "--lhs", m1, "--rhs", bad, "--psi", "00")
    assert code == 1 and out == ""
    assert "membership violation" in err and "rhs" in err
    code, out, err = _run(capsys, "inv", "--lhs", bad, "--psi", "00")
    assert code == 1 and "lhs" in err


def test_mul_input_errors(tmp_path, capsys):
    g1 = _write_element(tmp_path / "r1.json", JacobiElement(Covector((0, 0)), SymplecticMatrix.identity(1)))
    g2 = _write_element(tmp_path / "r2.json", JacobiElement(Covector((0,) * 4), SymplecticMatrix.identity(2)))
    assert _run(capsys, "mul", "--lhs", g1, "--rhs", g2) == (2, "", "error: rank mismatch\n")
    m24 = _write_element(tmp_path / "m24.json", jacobi_identity(1, 24))
    m240 = _write_element(tmp_path / "m240.json", jacobi_identity(1, 240))
    assert _run(capsys, "mul", "--lhs", m24, "--rhs", m240) == (2, "", "error: modulus mismatch\n")
    code, _, err = _run(capsys, "mul", "--lhs", str(tmp_path / "absent.json"), "--rhs", g1)
    assert code == 2 and "cannot read" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = _run(capsys, "mul", "--lhs", str(broken), "--rhs", g1)
    assert code == 2 and "invalid JSON" in err
    code, _, err = _run(capsys, "inv", "--lhs", g1, "--psi", "0")
    assert code == 2 and "2r" in err


def test_document_validation(tmp_path, capsys):
    # each bad document is an input error with its whole message; the A entries that are not
    # JSON integers take the row-by-row decoder, which names the entry
    cases = [
        ({"r": 1, "modulus": 0, "x": [0, 0]}, "element document lacks keys: ['A']"),
        ({"r": 0, "modulus": 0, "x": [], "A": []}, "rank must lie in 1..50, got 0"),
        ({"r": 1, "modulus": -2, "x": [0, 0], "A": [[1, 0], [0, 1]]},
         "modulus must be a non-negative integer, got -2"),
        ({"r": 1, "modulus": 0, "x": [0], "A": [[1, 0], [0, 1]]}, "x must be a list of 2r entries"),
        ({"r": 1, "modulus": 4, "x": [4, 0], "A": [[1, 0], [0, 1]]}, "x entries must lie in [0, modulus)"),
        ({"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, 0]]}, "A must be a 2r x 2r matrix"),
        ({"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, 0], [0, 2]]},
         "matrix does not preserve the hyperbolic form"),
        ({"r": 1, "modulus": 0, "x": [0, True], "A": [[1, 0], [0, 1]]}, "expected an integer"),
        ({"r": 1, "modulus": 0, "x": [0, "1.5"], "A": [[1, 0], [0, 1]]},
         "expected an integer or decimal string, got '1.5'"),
        ({"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, 0], [0, True]]}, "expected an integer"),
        ({"r": 1, "modulus": 0, "x": [0, 0], "A": [[1.0, 0], [0, 1]]},
         "expected an integer or decimal string, got 1.0"),
        ({"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, "1_0"], [0, 1]]},
         "expected an integer or decimal string, got '1_0'"),
        ({"r": 1, "modulus": 0, "x": [0, 0], "A": [[" 1", 0], [0, 1]]},
         "expected an integer or decimal string, got ' 1'"),
        ({"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, 0], 1]}, "A must be a 2r x 2r matrix"),
        ({"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, 0], [0]]}, "A must be a 2r x 2r matrix"),
    ]
    for doc, message in cases:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert _run(capsys, "inv", "--lhs", str(path)) == (2, "", f"error: {message}\n"), doc


def test_big_entries_serialized_as_strings(tmp_path, capsys):
    k = 1 << 40
    g = JacobiElement(Covector((k, 0)), transvection(Vector((k, 0))))
    doc = element_to_document(g)
    assert doc["A"][0][1] == str(k * k)  # beyond 64 bits: decimal string
    assert doc["x"][0] == k  # within 64 bits: plain integer
    assert element_from_document(doc) == g
    path = _write_element(tmp_path / "big.json", g)
    code, out, _ = _run(capsys, "inv", "--lhs", path)
    assert code == 0
    assert element_from_document(json.loads(out)) == g.inverse()


@pytest.mark.parametrize("k", INT64_BOUNDARY)
def test_int64_boundary_entries(tmp_path, capsys, k):
    # entries inside the int64 range stay JSON integers, the ones just past it become decimal strings
    wire = k if INT64_MIN <= k <= INT64_MAX else str(k)
    doc = {"r": 1, "modulus": 0, "x": [k, 0], "A": [[1, k], [0, 1]]}
    g = element_from_document(doc)
    assert g == element_from_document({"r": 1, "modulus": 0, "x": [str(k), "0"], "A": [["1", str(k)], [0, "+1"]]})
    want = {"r": 1, "modulus": 0, "x": [wire, 0], "A": [[1, wire], [0, 1]]}
    assert element_to_document(g) == want and element_from_document(want) == g
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    ident = tmp_path / "id.json"
    ident.write_text(json.dumps(_identity_document(1)))
    assert _run(capsys, "mul", "--lhs", str(path), "--rhs", str(ident)) == (
        0, json.dumps(want, sort_keys=True) + "\n", "")
    code, out, err = _run(capsys, "inv", "--lhs", str(path))
    assert (code, err) == (0, "")
    inverse = json.loads(out)
    assert element_from_document(inverse) == g.inverse()
    for entry in inverse["x"] + inverse["A"][0]:  # -k and k^2 cross the boundary the other way
        assert INT64_MIN <= entry <= INT64_MAX if type(entry) is int else not INT64_MIN <= int(entry) <= INT64_MAX


def _assert_int64_safe(value, where):
    """Each JSON integer lies within int64, and each decimal string outside it."""
    if isinstance(value, dict):
        for key, item in value.items():
            _assert_int64_safe(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _assert_int64_safe(item, f"{where}[{i}]")
    elif type(value) is int:
        assert INT64_MIN <= value <= INT64_MAX, where
    elif isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        assert not INT64_MIN <= int(value) <= INT64_MAX, where


def test_every_json_output_is_safe_for_64_bit_readers(tmp_path, capsys):
    reports = {name: (GOLDEN / f"{name}.out").read_text() for name, case in GOLDEN_CASES.items()
               if "json" in case["argv"]}
    seeds = (INT64_MAX, INT64_MAX + 1, INT64_MIN - 1)
    argvs = [("verify", "--r", "1", "--samples", "1", "--seed", str(seed), "--format", "json") for seed in seeds]
    argvs += [("split", "--p", "7", "--r", "31", "--format", "json"), ("coeff", "--jmax", "12", "--format", "json"),
              ("orbits", "--r", "10", "--format", "json")]
    # an element document may carry a modulus past int64; mul and inv write it back
    doc = tmp_path / "wide-modulus.json"
    doc.write_text(json.dumps({"r": 1, "modulus": str(1 << 64), "x": [0, 0], "A": [[1, 0], [0, 1]]}))
    argvs += [("inv", "--lhs", str(doc)), ("mul", "--lhs", str(doc), "--rhs", str(doc))]
    for argv in argvs:
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        reports[shlex.join(argv)] = out
    for name, out in reports.items():
        _assert_int64_safe(json.loads(out), name)
    for seed, argv in zip(seeds, argvs):
        report = json.loads(reports[shlex.join(argv)])
        wire = seed if INT64_MIN <= seed <= INT64_MAX else str(seed)
        assert report["seed"] == report["parameters"]["seed"] == wire
    for argv in argvs[-2:]:
        assert json.loads(reports[shlex.join(argv)])["modulus"] == str(1 << 64)


@pytest.mark.parametrize("seed, wire", [(INT64_MAX, INT64_MAX), (INT64_MAX + 1, str(INT64_MAX + 1))])
def test_verify_json_seed_is_a_string_exactly_past_int64(capsys, seed, wire):
    code, out, err = _run(capsys, "verify", "--r", "1", "--samples", "1", "--seed", str(seed), "--format", "json")
    report = json.loads(out)
    assert (code, err) == (0, "")
    assert report["seed"] == report["parameters"]["seed"] == wire
    assert type(report["seed"]) is type(wire)


@pytest.mark.parametrize("bad, message", [
    (True, "expected an integer"),
    (1.5, "expected an integer or decimal string, got 1.5"),
    ("0x1", "expected an integer or decimal string, got '0x1'"),
    ("\u00b2", "expected an integer or decimal string, got '\u00b2'"),  # a digit, but not a decimal one
])
def test_row_mixing_ints_with_non_integers(tmp_path, capsys, bad, message):
    path = tmp_path / "doc.json"
    for doc in ({"r": 1, "modulus": 0, "x": [0, bad], "A": [[1, 0], [0, 1]]},
                {"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, "+5"], [0, bad]]},
                {"r": 1, "modulus": 0, "x": [0, 0], "A": [[bad, 0], [0, 1]]}):
        path.write_text(json.dumps(doc))
        assert _run(capsys, "inv", "--lhs", str(path)) == (2, "", f"error: {message}\n"), doc
    doc = {"r": 1, "modulus": 0, "x": ["+5", 0], "A": [[1, "+5"], [0, 1]]}
    assert element_from_document(doc) == element_from_document(
        {"r": 1, "modulus": 0, "x": [5, 0], "A": [[1, 5], [0, 1]]})


def _reference_decode(value: str) -> int:
    """The decimal-string rule as an oracle: an optional sign, an `isdecimal` body, then int()."""
    body = value[1:] if value[:1] in "+-" else value
    if body.isdecimal():
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"integer entry exceeds the {sys.get_int_max_str_digits()}-digit"
                             " decimal input limit") from None
    raise ValueError(f"expected an integer or decimal string, got {value!r}")


def _decoded(decode, value):
    try:
        return decode(value), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int-string digit limit")
def test_decode_int_matches_the_isdecimal_rule():
    # int() also reads underscores and surrounding whitespace (Unicode spaces such as NBSP
    # and \x1c included), so every string up to length 4 over signs, digits of four scripts,
    # spaces, separators and non-digits gets the oracle's value or message
    alphabet = "07+- \t\xa0\x1c_\u0660\u0967\uff11\u00b2a."
    values = ["".join(chars) for n in range(5) for chars in product(alphabet, repeat=n)]
    limit = sys.get_int_max_str_digits()
    values += [sign + digit * n for sign in ("", "+", "-") for digit in "7\u0660"
               for n in (limit, limit + 1)]
    accepted = 0
    for value in values:
        want = _decoded(_reference_decode, value)
        assert _decoded(_decode_int, value) == want, repr(value)
        accepted += want[1] is None
    assert accepted > 1000


def test_documents_are_read_as_utf8_under_any_locale(tmp_path):
    # under the C locale with UTF-8 mode off, open() without an encoding decodes as ASCII
    doc = tmp_path / "arabic.json"
    doc.write_bytes('{"r": 1, "modulus": 0, "x": ["\u0660", 0], "A": [[1, 0], [0, 1]]}'.encode())
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b'{"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, 0], [0, 1]], "\xe9": 0}')
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(ROOT / "src"))
    runs = [subprocess.run([sys.executable, "-m", "symsplit.cli", "inv", "--lhs", str(path)],
                           capture_output=True, text=True, env=env) for path in (doc, latin)]
    assert (runs[0].returncode, runs[0].stdout, runs[0].stderr) == (
        0, json.dumps(_identity_document(1), sort_keys=True) + "\n", "")
    assert (runs[1].returncode, runs[1].stdout, runs[1].stderr) == (
        2, "", f"error: {latin}: not UTF-8 text\n")


def test_documents_are_decoded_once_with_the_errors_of_a_text_mode_read(tmp_path, capsys):
    # a document is read as bytes and decoded once; its errors are those of reading it in
    # text mode, universal newlines included, so line, column and char offsets stay the same
    def text_mode_error(path):
        with open(path, encoding="utf-8") as f:
            payload = f.read()
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(payload)
        return f"error: {path}: invalid JSON ({exc.value})\n"

    good = json.dumps(_identity_document(1), indent=1)
    path = tmp_path / "doc.json"
    for payload in (b'{"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, 0], [0, \xff]]}', b"\xc3"):
        path.write_bytes(payload)
        assert _run(capsys, "inv", "--lhs", str(path)) == (2, "", f"error: {path}: not UTF-8 text\n")
    path.write_bytes(b"\xef\xbb\xbf" + good.encode())  # a UTF-8 BOM is no JSON whitespace
    code, out, err = _run(capsys, "inv", "--lhs", str(path))
    assert (code, out, err) == (2, "", text_mode_error(path)) and "Unexpected UTF-8 BOM" in err
    for newline in ("\r\n", "\r"):
        path.write_bytes(good.replace("\n", newline).encode())
        assert _run(capsys, "inv", "--lhs", str(path)) == (
            0, json.dumps(_identity_document(1), sort_keys=True) + "\n", "")
        path.write_bytes(good.replace("\n", newline).replace('"modulus": 0,', '"modulus": 0,,').encode())
        code, out, err = _run(capsys, "inv", "--lhs", str(path))
        assert (code, out, err) == (2, "", text_mode_error(path)) and "line 3 column" in err


def test_element_rank_guard(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(json.dumps(_identity_document(ELEMENT_RANK_LIMIT)))
    assert _run(capsys, "inv", "--lhs", str(path)) == (
        0, json.dumps(_identity_document(ELEMENT_RANK_LIMIT), sort_keys=True) + "\n", "")
    for doc in (_identity_document(ELEMENT_RANK_LIMIT + 1), {"r": 10 ** 30, "modulus": 0, "x": [], "A": []}):
        message = f"error: rank must lie in 1..{ELEMENT_RANK_LIMIT}, got {doc['r']}\n"
        path.write_text(json.dumps(doc))
        assert _run(capsys, "inv", "--lhs", str(path)) == (2, "", message)
        assert _run(capsys, "mul", "--lhs", str(path), "--rhs", str(path)) == (2, "", message)


def test_psi_bits_read_as_the_packed_state():
    for r in (1, 2, 3):
        for bits in map("".join, product("01", repeat=2 * r)):
            assert _parse_psi(bits, r) == QuadraticRefinement(tuple(map(int, bits))), bits


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = _run(capsys, "inv", "--lhs", str(path))
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int-string digit limit")
def test_result_past_decimal_digit_limit_is_an_input_error(tmp_path, capsys):
    # a valid document whose entry has 4300 digits; the product's has 4301
    doc = {"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, "5" + "0" * 4299], [0, 1]]}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "mul", "--lhs", str(path), "--rhs", str(path))
    assert code == 2 and out == ""
    assert err == f"error: result entry exceeds the {sys.get_int_max_str_digits()}-digit decimal output limit\n"
    code, out, _ = _run(capsys, "inv", "--lhs", str(path))  # 4300-digit entries still print
    assert code == 0 and json.loads(out)["A"][0][1] == "-5" + "0" * 4299
    # the covector part of a product past the limit is refused the same way
    doc["x"] = ["5" + "0" * 4299, 0]
    path.write_text(json.dumps(doc))
    assert _run(capsys, "mul", "--lhs", str(path), "--rhs", str(path)) == (2, "", err)
    # an input integer literal past the limit is refused naming the file
    path.write_text('{"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, 5' + "0" * 4399 + '], [0, 1]]}')
    assert _run(capsys, "inv", "--lhs", str(path)) == (
        2, "", f"error: {path}: integer literal exceeds the {sys.get_int_max_str_digits()}-digit"
               " decimal input limit\n")
    # so is a decimal-string entry past the limit
    doc = {"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, "5" + "0" * 4399], [0, 1]]}
    path.write_text(json.dumps(doc))
    assert _run(capsys, "inv", "--lhs", str(path)) == (
        2, "", f"error: integer entry exceeds the {sys.get_int_max_str_digits()}-digit decimal input limit\n")


def test_verify_table_and_exit_codes(capsys):
    code, out, err = _run(capsys, "verify", "--r", "1", "--samples", "10", "--seed", "7")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("verify  r=1  samples=10  seed=7  version=")
    assert lines[1] == "suite             passed  total  ok"
    names = [ln.split()[0] for ln in lines[2:-1]]
    assert names == ["cocycle_law", "torsor", "additivity", "minus_id",
                     "group_axioms", "reframe", "section"]
    assert all(ln.split()[-1] == "yes" for ln in lines[2:-1])
    assert lines[-1] == "all suites: PASS"


def test_verify_json_determinism_and_seed(capsys):
    args = ("verify", "--r", "2", "--samples", "5", "--seed", "11", "--format", "json")
    code, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code == 0 and code2 == 0 and out1 == out2
    report = json.loads(out1)
    assert report["seed"] == 11
    assert report["parameters"]["negative_control"] is False
    assert report["results"]["all_ok"] is True
    suites = {s["name"]: s for s in report["results"]["suites"]}
    assert suites["cocycle_law"]["passed"] == suites["cocycle_law"]["total"] == 5
    code, out3, _ = _run(capsys, "verify", "--r", "2", "--samples", "5", "--seed", "12",
                         "--format", "json")
    assert json.loads(out3)["results"]["all_ok"] is True


def test_verify_negative_control(capsys):
    code, out, _ = _run(capsys, "verify", "--r", "1", "--samples", "5", "--seed", "3",
                        "--negative-control", "--format", "json")
    assert code == 1
    report = json.loads(out)
    suites = {s["name"]: s for s in report["results"]["suites"]}
    assert suites["negative_control"] == {"name": "negative_control", "passed": 0,
                                          "total": 1, "ok": False}
    assert report["results"]["all_ok"] is False
    # every honest suite still passes; only the planted control fails
    assert all(s["ok"] for name, s in suites.items() if name != "negative_control")


def test_verify_guards(capsys):
    code, out, err = _run(capsys, "verify", "--r", "8", "--samples", "5", "--seed", "1")
    assert code == 0 and err == "" and out.splitlines()[-1] == "all suites: PASS"
    assert _run(capsys, "verify", "--r", "9", "--samples", "5", "--seed", "1") == (
        2, "", "error: rank must lie in 1..8, got 9\n")
    assert _run(capsys, "verify", "--r", "1", "--samples", "0", "--seed", "1") == (
        2, "", f"error: samples must lie in 1..{VERIFY_SAMPLES_LIMIT}, got 0\n")
    # the help names the range as it names the rank's
    code, out, _ = _run(capsys, "verify", "--help")
    assert code == 0 and f"--samples SAMPLES     rounds per suite, 1..{VERIFY_SAMPLES_LIMIT}\n" in out


def test_verify_samples_limit(capsys, monkeypatch):
    # the limit runs; one past it exits 2 before any word is drawn
    assert VERIFY_SAMPLES_LIMIT >= 200  # the README example runs --samples 200
    code, out, err = _run(capsys, "verify", "--r", "1", "--samples", str(VERIFY_SAMPLES_LIMIT), "--seed", "3")
    assert code == 0 and err == "" and out.splitlines()[-1] == "all suites: PASS"
    draws = []
    word = verify.random_symplectic_word

    def counting_word(*args):
        draws.append(args)
        return word(*args)

    monkeypatch.setattr(verify, "random_symplectic_word", counting_word)
    monkeypatch.setattr(jacobi, "random_symplectic_word", counting_word)
    code, out, err = _run(capsys, "verify", "--r", "8", "--samples", str(VERIFY_SAMPLES_LIMIT + 1),
                          "--seed", "3")
    assert (code, out, err) == (
        2, "", f"error: samples must lie in 1..{VERIFY_SAMPLES_LIMIT}, got {VERIFY_SAMPLES_LIMIT + 1}\n")
    assert draws == []
    assert _run(capsys, "verify", "--r", "8", "--samples", "1", "--seed", "3")[0] == 0
    assert draws  # the counter sees the words an accepted call draws


def _identity_argv(tmp_path, command, r):
    path = tmp_path / f"id-{r}.json"
    path.write_text(json.dumps(_identity_document(r)))
    return (command, "--lhs", str(path)) + (("--rhs", str(path)) if command == "mul" else ())


# guard -> (argv builder, the value the guard admits, the value just past it, kernels the guard protects)
GUARD_EDGES = {
    "mul-rank": (lambda tmp, r: _identity_argv(tmp, "mul", r), ELEMENT_RANK_LIMIT, ELEMENT_RANK_LIMIT + 1,
                 ((symplectic, "_pairs_as_basis"),)),
    "inv-rank": (lambda tmp, r: _identity_argv(tmp, "inv", r), ELEMENT_RANK_LIMIT, ELEMENT_RANK_LIMIT + 1,
                 ((symplectic, "_pairs_as_basis"),)),
    "orbits-rank": (lambda tmp, r: ("orbits", "--r", str(r)), 10, 11, ((quadratic, "_orbit_bitset"),)),
    "split-rank": (lambda tmp, r: ("split", "--p", "3", "--r", str(r)), 31, 32,
                   ((jacobi, "is_group_fixed"), (quadratic, "is_group_fixed"))),
    "verify-rank": (lambda tmp, r: ("verify", "--r", str(r), "--samples", "1", "--seed", "0"), 8, 9,
                    ((verify, "random_symplectic_word"), (jacobi, "random_symplectic_word"))),
    "verify-samples": (lambda tmp, n: ("verify", "--r", "1", "--samples", str(n), "--seed", "0"),
                       VERIFY_SAMPLES_LIMIT, VERIFY_SAMPLES_LIMIT + 1,
                       ((verify, "random_symplectic_word"), (jacobi, "random_symplectic_word"))),
}


@pytest.mark.parametrize("guard", GUARD_EDGES)
def test_input_just_past_a_guard_does_no_work(tmp_path, capsys, monkeypatch, guard):
    # the kernel calls are counted, not timed: past the guard there are none, at the guard some
    argv_of, inside, past, kernels = GUARD_EDGES[guard]
    calls = []
    for module, name in kernels:
        def counting(*args, _kernel=getattr(module, name)):
            calls.append(args)
            return _kernel(*args)
        monkeypatch.setattr(module, name, counting)
    code, out, err = _run(capsys, *argv_of(tmp_path, past))
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, err
    assert calls == []
    assert _run(capsys, *argv_of(tmp_path, inside))[0] == 0
    assert calls


def _operands_of_two_ranks(tmp_path):
    g, h = jacobi_identity(1), jacobi_identity(2)
    argv = ("mul", "--lhs", _write_element(tmp_path / "g.json", g), "--rhs", _write_element(tmp_path / "h.json", h))
    return argv, lambda: jmul(g, h), "rank mismatch"


@pytest.mark.parametrize("case", [
    lambda _: (("orbits", "--r", "11"), lambda: orbit_decomposition(11), "rank must lie in 1..10, got 11"),
    lambda _: (("split", "--p", "3", "--r", "32"), lambda: splits(32), "rank must lie in 1..31, got 32"),
    lambda _: (("split", "--p", "3", "--r", "0"), lambda: splits(0), "rank must lie in 1..31, got 0"),
    lambda _: (("verify", "--r", "9", "--samples", "1", "--seed", "0"), lambda: run_suites(9, 1, 0),
               "rank must lie in 1..8, got 9"),
    lambda _: (("verify", "--r", "1", "--samples", "0", "--seed", "0"), lambda: run_suites(1, 0, 0),
               f"samples must lie in 1..{VERIFY_SAMPLES_LIMIT}, got 0"),
    lambda _: (("verify", "--r", "8", "--samples", str(VERIFY_SAMPLES_LIMIT + 1), "--seed", "0"),
               lambda: run_suites(8, VERIFY_SAMPLES_LIMIT + 1, 0),
               f"samples must lie in 1..{VERIFY_SAMPLES_LIMIT}, got {VERIFY_SAMPLES_LIMIT + 1}"),
    lambda _: (("split", "--p", "5", "--r", "1"), lambda: splitting_theorem_verdict(5, 1),
               "supported middle dimensions are 3 and 7"),
    _operands_of_two_ranks,
], ids=["orbits-rank", "split-rank", "split-rank-zero", "verify-rank", "verify-samples",
        "verify-samples-limit", "split-p", "mul-operands"])
def test_cli_error_is_the_library_error(tmp_path, capsys, case):
    # each bound has one guard, in the library; the CLI prints its message unchanged
    argv, call, message = case(tmp_path)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert _run(capsys, *argv) == (2, "", f"error: {message}\n")
    if argv[0] != "mul":
        assert _run(capsys, *argv, "--format", "json") == (2, "", f"error: {message}\n")


def test_coeff_table_and_json(capsys):
    code, out, _ = _run(capsys, "coeff", "--jmax", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "j    a  c  (2j-1)!          coefficient"
    table = [ln.split() for ln in lines[2:]]
    assert [row[-1] for row in table] == ["4", "12", "240", "5040"]
    code, out, _ = _run(capsys, "coeff", "--jmax", "5", "--format", "json")
    rows = json.loads(out)["results"]["rows"]
    assert rows[0] == {"j": 1, "a": 2, "c": 2, "odd_factorial": 1, "coefficient": 4}
    assert rows[4] == {"j": 5, "a": 2, "c": 1, "odd_factorial": 362880, "coefficient": 725760}
    assert _run(capsys, "coeff", "--jmax", "0") == (2, "", "error: --jmax must be a positive integer, got 0\n")


@pytest.mark.parametrize("jmax", [4, 10, 12])
def test_coeff_columns_line_up(capsys, jmax):
    # (2j-1)! has 18 digits from j = 10 on, past the column's minimum width of 16
    code, out, err = _run(capsys, "coeff", "--jmax", str(jmax))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == jmax + 2
    _assert_columns_line_up(lines[1], lines[2:], left={0, 1, 2, 3, 4})


def test_argparse_errors_and_version(capsys):
    assert _run(capsys, "nonsense")[0] == 2
    assert _run(capsys, "orbits")[0] == 2  # missing --r
    # the homotopy modulus is derived from --p, so split has no option to set it
    code, out, err = _run(capsys, "split", "--p", "3", "--r", "2", "--modulus", "24")
    assert (code, out) == (2, "") and err.endswith("error: unrecognized arguments: --modulus 24\n")
    code, out, _ = _run(capsys, "--version")
    assert code == 0 and out.startswith("symsplit ")


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "symsplit.cli", "orbits", "--r", "1",
                           "--format", "json"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["pass"] is True


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every CLI call starts a fresh interpreter and pays for each module the package imports;
    # dataclasses alone (with inspect, ast, dis and tokenize) cost about 13 ms of that.  The CLI
    # imports the library on its first command, so one command runs before the check, and the
    # check first makes sure that the command loaded every module of the package.
    package = sorted(f"symsplit.{path.stem}" for path in (ROOT / "src" / "symsplit").glob("*.py")
                     if path.stem != "__init__")
    command = ("import sys, symsplit.cli\nsymsplit.cli.main(['orbits', '--r', '1'])\n"
               f"print(sorted(set({package!r}) - set(sys.modules)), ")
    for flags, modules in (((), {"dataclasses", "inspect"}),
                           # nor typing or pathlib (about 14 ms and 8 ms), under -S,
                           # because site's .pth files may load both
                           (("-S",), {"pathlib", "typing"})):
        code = command + f"sorted({sorted(modules)!r} & sys.modules.keys()))"
        proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 0 and proc.stdout.endswith("\n[] []\n"), proc.stderr


def test_one_parser_serves_every_call_like_a_fresh_process(tmp_path, capsys, monkeypatch):
    # fixed width, so argparse wraps usage text the same in and out of process
    monkeypatch.setenv("COLUMNS", "80")
    t = transvection(Vector((1, 1)))
    g = _write_element(tmp_path / "g.json", JacobiElement(Covector((2, 2), 24), t))
    h = _write_element(tmp_path / "h.json", JacobiElement(Covector((4, 0), 24), t.inverse()))
    calls = [
        ("mul", "--lhs", g, "--rhs", h, "--psi", "11"),
        ("inv", "--lhs", g),
        ("split", "--p", "3", "--r", "2", "--modulus", "4"),
        ("split", "--p", "3", "--r", "2"),
        ("verify", "--r", "1", "--samples", "3", "--seed", "5", "--negative-control"),
        ("verify", "--r", "1", "--samples", "3", "--seed", "5"),
        ("orbits", "--format", "json"),
        ("--version",),
        ("orbits", "--r", "1", "extra"),
        ("orbits", "--r", "1", "--version"),
        ("split", "-h"),
        ("orbits",),
        ("nonsense",),
        ("--", "orbits", "--r", "1"),
    ]
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(ROOT / "src"))
    codes = []
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "symsplit.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert _run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(fresh.returncode)
    assert codes == [0, 0, 2, 0, 1, 0, 2, 0, 2, 2, 0, 2, 2, 0]


def test_the_parser_offers_exactly_the_handled_commands():
    parser = build_parser()
    assert list(parser.commands) == list(_HANDLERS)
    offered = re.search(r"\{([a-z,]+)\}", parser.format_usage()).group(1)
    assert offered.split(",") == list(_HANDLERS)


@pytest.mark.parametrize("flags, argv", [((), ("orbits", "--r", "3")),
                                         (("-u",), ("orbits", "--r", "3")),
                                         ((), ("-h",))],
                         ids=["buffered", "unbuffered", "buffered-help"])
def test_closed_stdout_is_an_input_error_without_a_traceback(flags, argv):
    # buffered, the write fills the buffer and the flush meets the closed pipe;
    # unbuffered (-u, or PYTHONUNBUFFERED in the environment), the write itself does.
    # Help text is written by argparse, which drops an unbuffered write's error itself.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write meets a closed pipe
    try:
        proc = subprocess.run([sys.executable, *flags, "-m", "symsplit.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr == "error: stdout closed before the output was written\n"


def test_failed_internal_check_is_a_property_failure_without_a_traceback(capsys, monkeypatch):
    # words doubled (2A scales the form by 4): verify's first inverse fails its postcondition
    word = verify.random_symplectic_word

    def doubled_word(*args):
        return SymplecticMatrix._trusted(tuple(tuple(2 * e for e in row) for row in word(*args).rows))

    monkeypatch.setattr(verify, "random_symplectic_word", doubled_word)
    monkeypatch.setattr(jacobi, "random_symplectic_word", doubled_word)
    assert _run(capsys, "verify", "--r", "2", "--samples", "5", "--seed", "7") == (
        1, "", "error: inverse postcondition failed\n")


def test_running_out_of_memory_is_an_input_error_without_a_traceback(capsys):
    # the least address-space limit, in 2 MB steps, under which orbits --r 2 still runs; set in
    # the child only.  orbits --r 10 needs several MB more for its 4^r-bit closure masks.
    resource = pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def orbits(r, limit):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        proc = subprocess.run([sys.executable, "-m", "symsplit.cli", "orbits", "--r", str(r)],
                              capture_output=True, text=True, env=env, preexec_fn=cap)
        return proc.returncode, proc.stdout, proc.stderr

    small = _run(capsys, "orbits", "--r", "2")
    limit = next((mb << 20 for mb in range(12, 130, 2) if orbits(2, mb << 20) == small), None)
    assert limit is not None, "orbits --r 2 does not run under 128 MB"
    assert orbits(10, limit) == (2, "", "error: out of memory\n")


def test_an_arithmetic_error_in_a_handler_exits_1(capsys, monkeypatch):
    def failing(args, lib):
        raise ArithmeticError("boom")

    monkeypatch.setitem(_HANDLERS, "coeff", failing)
    assert _run(capsys, "coeff", "--jmax", "2") == (1, "", "error: boom\n")


def test_a_memory_error_in_a_handler_exits_2(capsys, monkeypatch):
    # in process, so it runs where `resource` and its address-space limit do not exist
    def failing(args, lib):
        raise MemoryError

    monkeypatch.setitem(_HANDLERS, "coeff", failing)
    assert _run(capsys, "coeff", "--jmax", "2") == (2, "", "error: out of memory\n")


def _reference_main(argv):
    """The reference route: one top-level `parse_args`, then the handler named by `args.command`."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, text = _HANDLERS[args.command](args, _library())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def _outcome(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_dispatch_matches_reference(argv):
    # fixed width, so argparse wraps usage and help text the same on both sides
    with mock.patch.dict(os.environ, COLUMNS="80"):
        if argv[:1] == ["--"] and argv[1:2] and argv[1] in _HANDLERS:
            # an end-of-options marker before a command, which Python 3.11's single parse reads
            # as the command name: `-- <argv>` must run as `<argv>`, and that is compared instead
            assert _outcome(main, argv) == _outcome(main, argv[1:]), argv
            argv = argv[1:]
        assert _outcome(main, argv) == _outcome(_reference_main, argv), argv


DISPATCH_EDGES = [
    [], ["--version"], ["-h"], ["--help"], ["--vers"], ["split", "-h"], ["orbits", "--he"],
    ["nonsense"], ["orb", "--r", "1"], ["spl", "--p", "3", "--r", "1"], ["co", "--jmax", "2"],
    ["ORBITS", "--r", "1"], [""], ["-x"],
    ["--format", "json", "orbits", "--r", "1"], ["--r", "1", "orbits"],
    ["--r", "orbits", "--r", "1"], ["-h", "orbits"], ["--version", "orbits", "--r", "1"],
    ["orbits", "--r", "1", "extra"], ["orbits", "extra", "--r", "1"],
    ["split", "--p", "3", "--r", "1", "x", "y"], ["orbits", "--r", "1", "--version"],
    ["orbits", "-h", "--r", "1"], ["orbits", "--r", "1", "orbits"],
    ["--", "orbits", "--r", "1"], ["orbits", "--", "--r", "1"], ["orbits", "--r", "1", "--"],
    ["orbits", "--r", "--", "1"], ["split", "--p", "3", "--", "--r", "2"],
    ["--"], ["--", "nonsense"], ["--", "orb", "--r", "1"], ["--", "--", "orbits", "--r", "1"],
    ["--", "--r", "1", "orbits"], ["--", "orbits", "--", "--r", "1"], ["--", "split", "-h"],
    ["verify", "--r", "1", "--sam", "2", "--seed", "3", "--neg"],
    ["verify", "--r", "1", "--s", "2", "--seed", "3"],
    ["orbits", "--r", "2", "--format=json"], ["orbits", "--r=2", "--format", "json"],
    ["orbits", "--r", "1", "--r", "2"], ["split", "--p", "3", "--p", "7", "--r", "1"],
    ["split", "--p", "3"], ["verify", "--r", "1", "--seed", "2"], ["mul", "--lhs"],
    ["split", "--p", "5", "--r", "1"], ["orbits", "--r", "1", "--format", "yaml"],
    ["orbits", "--r", "x"], ["orbits", "--r", "0"], ["inv", "--lhs", "no-such-document.json"],
    ["verify", "--r", "1", "--samples", "2", "--seed", "-5"], ["mul", "--lhs", "x", "--psi", ""],
    ["verify", "--r", "1", "--samples", "2", "--seed", "3", "--negative-control", "--negative-control"],
    ["orbits", "--r", "1", "--format", "json", "--format", "table"], ["inv", "--lhs", "--psi", "11"],
    ["orbits", "--r"], ["orbits", "--r", " 3"], ["orbits", "--r", "1_0"],
]


@pytest.mark.parametrize("argv", [case["argv"] for case in GOLDEN_CASES.values()] + DISPATCH_EDGES,
                         ids=[*GOLDEN_CASES, *(shlex.join(a) or "(empty)" for a in DISPATCH_EDGES)])
def test_dispatch_matches_the_single_top_level_parse(argv):
    _assert_dispatch_matches_reference(argv)


@st.composite
def _report_argv_with_a_stray_token(draw):
    argv = draw(_report_argv())
    stray = draw(st.sampled_from(["extra", "--version", "-h", "--", "--r", "7", "--format",
                                  "--bogus", "-x", "orbits", "orb", "--r=1", ""]))
    argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_report_argv_with_a_stray_token())
def test_dispatch_matches_the_single_top_level_parse_with_a_stray_token(argv):
    _assert_dispatch_matches_reference(argv)


def _known_parse(command, tokens):
    """(vars, leftovers) of a fresh command parser's `parse_known_args`, or None where it exits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            args, extra = build_parser().commands[command].parse_known_args(tokens)
        except SystemExit:
            return None
    return vars(args), extra


def _options(command):
    """The command's optional actions but help, as build_parser adds them."""
    return [a for a in build_parser().commands[command]._actions
            if a.option_strings and a.default is not argparse.SUPPRESS]


def _value(action):
    """A value argparse takes for the action, drawn among its choices, its ints or text."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(0, 10 ** 6).map(str)
    return st.text(max_size=5).filter(lambda text: not text.startswith("-"))


@st.composite
def _plain_argv(draw):
    """A command and its tokens in the plain form: each drawn option once, required ones always."""
    command = draw(st.sampled_from(list(_HANDLERS)))
    tokens = []
    for action in draw(st.permutations([a for a in _options(command) if a.required or draw(st.booleans())])):
        tokens.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs is None:
            tokens.append(draw(_value(action)))
    return command, tokens


_EDGE_TOKENS = ["-h", "--help", "--", "-5", "", " 3", "1_0", "--r=1", "--format=json", "--sam",
                "--neg", "x", "-x", "yaml", "3", "json", "--version"]


@st.composite
def _mixed_argv(draw):
    """A plain argv with up to three tokens inserted, repeated or dropped."""
    command, tokens = draw(_plain_argv())
    options = [s for a in _options(command) for s in a.option_strings]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["edge", "option", "repeat", "drop"]))
        if edit == "drop" and tokens:
            del tokens[min(at, len(tokens) - 1)]
        elif edit == "repeat" and tokens:
            tokens.insert(at, draw(st.sampled_from(tokens)))
        else:
            tokens.insert(at, draw(st.sampled_from(_EDGE_TOKENS if edit == "edge" else options)))
    return command, tokens


@settings(max_examples=300, deadline=None)
@given(case=_mixed_argv())
def test_plain_reader_agrees_with_parse_known_args(case):
    # the reader may leave any argv to argparse, but what it reads, it reads as argparse does
    command, tokens = case
    read = _read_plain(command, tokens)
    assert read is None or _known_parse(command, tokens) == (vars(read), [])


@settings(max_examples=100, deadline=None)
@given(case=_plain_argv())
def test_plain_reader_reads_every_plain_argv(case):
    command, tokens = case
    read = _read_plain(command, tokens)
    assert read is not None and _known_parse(command, tokens) == (vars(read), [])


def test_plain_reader_reads_every_golden_argv():
    for case in GOLDEN_CASES.values():
        command, *tokens = case["argv"]
        read = _read_plain(command, tokens)
        assert read is not None and _known_parse(command, tokens) == (vars(read), []), case["argv"]


@pytest.mark.parametrize("argv", [
    ["orbits", "--r", "1", "--r", "1"], ["orbits", "--r", "1", "--format", "json", "--format", "json"],
    ["verify", "--r", "1", "--samples", "2", "--seed", "3", "--negative-control", "--negative-control"],
    ["orbits", "--r", "1", "--format", "yaml"], ["split", "--p", "3", "--r", "1", "--format", "JSON"],
    ["orbits"], ["split", "--p", "3"], ["verify", "--r", "1", "--seed", "2"], ["mul", "--lhs", "x"],
    ["orbits", "--r", "1", "-h"], ["orbits", "--r=1"], ["verify", "--r", "1", "--sam", "2", "--seed", "3"],
    ["orbits", "--", "--r", "1"], ["verify", "--r", "1", "--samples", "2", "--seed", "-5"],
    ["orbits", "--r", "x"], ["orbits", "--r"], ["inv", "--lhs", "--psi", "11"], ["orbits", "--r", "1", "x"],
], ids=shlex.join)
def test_plain_reader_leaves_every_other_argv_to_argparse(argv):
    # a repeat, a value outside the choices, a missing required option, help, "=", an abbreviation,
    # "--", a negative number, a bad or missing value, a stray token
    assert _read_plain(argv[0], argv[1:]) is None


MARKED_COMMANDS = [["orbits", "--r", "2", "--format", "json"], ["split", "--p", "7", "--r", "3"],
                   ["verify", "--r", "1", "--samples", "2", "--seed", "4"], ["coeff", "-h"], ["orbits", "--r", "0"]]


@pytest.mark.parametrize("argv", MARKED_COMMANDS, ids=map(shlex.join, MARKED_COMMANDS))
def test_a_leading_end_of_options_marker_runs_the_command(capsys, monkeypatch, argv):
    # `symsplit -- <command> ...` is `symsplit <command> ...`, codes and bytes alike
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(capsys, "--", *argv) == _run(capsys, *argv)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 70), 1 << 70) | st.text(max_size=6)
    | st.sampled_from(["0", "-3", "+2", "1.5", "9" * 30]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@st.composite
def _element_documents(draw):
    """Arbitrary JSON, or a valid rank-1 document with one field replaced by arbitrary JSON."""
    if draw(st.booleans()):
        return draw(_json_values)
    doc = {"r": 1, "modulus": draw(st.sampled_from([0, 2, 3, 24])), "x": [0, 0],
           "A": [[1, draw(st.integers(-5, 5) | st.sampled_from(INT64_BOUNDARY))], [0, 1]]}
    key = draw(st.sampled_from(["r", "modulus", "x", "A", None]))
    if key is not None:
        doc[key] = draw(_json_values)
    return doc


@settings(max_examples=150, deadline=None)
@given(docs=st.lists(_element_documents(), min_size=2, max_size=2),
       op=st.sampled_from(["mul", "inv"]), psi=st.sampled_from([None, "00", "11", "0"]))
@example(docs=[_identity_document(ELEMENT_RANK_LIMIT + 1)] * 2, op="mul", psi=None)
@example(docs=[_identity_document(ELEMENT_RANK_LIMIT + 1), {}], op="inv", psi="00")
def test_exit_contract_on_arbitrary_documents(tmp_path_factory, docs, op, psi):
    # ROADMAP exit contract: 0 success, 1 membership violation only, 2 input error, no traceback
    paths = []
    for k, doc in enumerate(docs):
        path = tmp_path_factory.getbasetemp() / f"contract-{k}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    argv = [op, "--lhs", paths[0]] + (["--rhs", paths[1]] if op == "mul" else [])
    argv += [] if psi is None else ["--psi", psi]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("membership violation") and out.getvalue() == ""
    elif code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    else:
        assert err.getvalue() == "" and element_from_document(json.loads(out.getvalue()))


@st.composite
def _report_argv(draw):
    """argv for orbits/split/verify/coeff with values from bounded ranges, some out of range."""
    def ints(lo, hi):
        return str(draw(st.integers(lo, hi)))

    command = draw(st.sampled_from(["orbits", "split", "verify", "coeff"]))
    argv = [command]
    if command == "coeff":
        argv += ["--jmax", ints(-1, 30)]
    else:
        argv += ["--r", ints(-2, 10)]
    if command == "split":
        argv += ["--p", draw(st.sampled_from(["3", "7", "5"]))]
    if command == "verify":
        samples = draw(st.one_of(st.integers(-1, 3), st.just(VERIFY_SAMPLES_LIMIT + 1)))
        argv += ["--samples", str(samples), "--seed", ints(-5, 5)]
        if draw(st.booleans()):
            argv.append("--negative-control")
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["table", "json"]))]
    return argv


@settings(max_examples=120, deadline=None)
@given(argv=_report_argv())
@example(argv=["split", "--p", "3", "--r", "1", "--modulus", "0"])
@example(argv=["verify", "--r", "1", "--samples", str(VERIFY_SAMPLES_LIMIT), "--seed", "0"])
@example(argv=["verify", "--r", "8", "--samples", str(VERIFY_SAMPLES_LIMIT + 1), "--seed", "0"])
@example(argv=["orbits", "--r", "10"])
@example(argv=["orbits", "--r", "11"])
@example(argv=["split", "--p", "7", "--r", "31"])
@example(argv=["split", "--p", "7", "--r", "32"])
@example(argv=["coeff", "--jmax", "1"])
@example(argv=["coeff", "--jmax", "0"])
@example(argv=["split", "--p", "5", "--r", "1"])
def test_exit_contract_on_report_argv(argv):
    # ROADMAP exit contract: 0 success, 1 property failure (here only the planted
    # negative control), 2 input error; never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "--negative-control" in argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_report_outputs(name, capsys):
    # golden/<name>.out is the recorded stdout of cases.json's argv; a change meant to alter it rewrites both
    case = GOLDEN_CASES[name]
    code, out, err = _run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], "")
    assert out == (GOLDEN / f"{name}.out").read_text()
