"""`mul` and `inv` against `perfbench/reference.py`, plain-int arithmetic that shares no code with symsplit.

The reference builds its own transvection words, products, inverses (checked
by multiplying back) and principal-cocycle parities, so these tests pin the
CLI's JSON decoding and encoding, its exact arithmetic and the inverse
postcondition against an independent implementation.  The module is loaded
from its file and not changed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from symsplit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import reference  # noqa: E402


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _printed(element) -> str:
    return json.dumps(element.document(), sort_keys=True) + "\n"


@pytest.mark.parametrize("big", [False, True], ids=["small", "big"])
@pytest.mark.parametrize("modulus", [0, 24, 240])
@pytest.mark.parametrize("r", [2, 4, 6])
def test_mul_and_inv_print_the_reference_documents(tmp_path, capsys, r, modulus, big):
    rng = random.Random(100 * r + modulus + big)
    paths = iter(tmp_path / f"e{k}.json" for k in range(100))

    def write(element) -> str:
        path = next(paths)
        path.write_text(json.dumps(element.document()))
        return str(path)

    for _ in range(2 if big else 4):
        psi = [rng.randint(0, 1) for _ in range(2 * r)]
        bits = "".join(map(str, psi))
        g, h = (reference.random_element(rng, r, modulus, big, psi, True) for _ in range(2))
        lhs, rhs = write(g), write(h)
        for argv, want in ((("mul", "--lhs", lhs, "--rhs", rhs), g.mul(h)),
                           (("inv", "--lhs", lhs), g.inverse())):
            assert _run(capsys, *argv) == (0, _printed(want), "")
            assert _run(capsys, *argv, "--psi", bits) == (0, _printed(want), "")

        bad = reference.random_element(rng, r, modulus, big, psi, False)
        outsider = write(bad)
        # without --psi a non-member is just an element: its arithmetic still matches
        assert _run(capsys, "mul", "--lhs", outsider, "--rhs", rhs) == (0, _printed(bad.mul(h)), "")
        assert _run(capsys, "inv", "--lhs", outsider) == (0, _printed(bad.inverse()), "")
        violation = f"membership violation at base {bits}: "
        assert _run(capsys, "mul", "--lhs", lhs, "--rhs", outsider, "--psi", bits) == (
            1, "", violation + "rhs, product\n")
        assert _run(capsys, "mul", "--lhs", outsider, "--rhs", rhs, "--psi", bits) == (
            1, "", violation + "lhs, product\n")
        assert _run(capsys, "inv", "--lhs", outsider, "--psi", bits) == (1, "", violation + "lhs, inverse\n")
