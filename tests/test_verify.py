from __future__ import annotations

import sys
from collections import Counter

import pytest

from symsplit import quadratic, verify
from symsplit.quadratic import QuadraticRefinement
from symsplit.verify import SUITE_MODULI, VERIFY_RANK_LIMIT, SuiteResult, run_suites

EXPECTED_ORDER = ["cocycle_law", "torsor", "additivity", "minus_id",
                  "group_axioms", "reframe", "section"]


def test_suite_result_ok():
    assert SuiteResult("x", 3, 3).ok
    assert not SuiteResult("x", 2, 3).ok


def test_moduli_and_limit_constants():
    assert SUITE_MODULI == (0, 4, 24, 240)
    assert 1 <= VERIFY_RANK_LIMIT <= 8


@pytest.mark.parametrize("r", [1, 2, 3])
def test_all_suites_pass(r):
    suites = run_suites(r, samples=8, seed=123)
    assert [s.name for s in suites] == EXPECTED_ORDER
    for s in suites:
        assert s.ok, f"{s.name}: {s.passed}/{s.total}"
        assert s.total >= 1


def test_run_is_seed_deterministic():
    a = run_suites(2, samples=6, seed=99)
    b = run_suites(2, samples=6, seed=99)
    assert a == b


def test_negative_control_appends_expected_failure():
    suites = run_suites(1, samples=4, seed=5, negative_control=True)
    assert [s.name for s in suites] == EXPECTED_ORDER + ["negative_control"]
    control = suites[-1]
    assert control.passed == 0 and control.total == 1 and not control.ok
    assert all(s.ok for s in suites[:-1])


@pytest.mark.parametrize("seed", [3, 7])
def test_torsor_check_builds_no_refinement_per_state(monkeypatch, seed):
    # the full-image check is one 4^r-bit set: no listing of all refinements and,
    # over all suites at r = 6, fewer refinement objects than the 4^6 states
    counts = Counter()
    listing = quadratic.enumerate_refinements

    def counting_listing(r):
        counts["enumerate_refinements"] += 1
        return listing(r)

    for name, module in list(sys.modules.items()):
        if name.startswith("symsplit") and getattr(module, "enumerate_refinements", None) is listing:
            monkeypatch.setattr(module, "enumerate_refinements", counting_listing)
    trusted, init = QuadraticRefinement._trusted.__func__, QuadraticRefinement.__init__

    def counting_trusted(cls, nbits, state):
        counts["refinements"] += 1
        return trusted(cls, nbits, state)

    def counting_init(self, basis_values):
        counts["refinements"] += 1
        init(self, basis_values)

    monkeypatch.setattr(QuadraticRefinement, "_trusted", classmethod(counting_trusted))
    monkeypatch.setattr(QuadraticRefinement, "__init__", counting_init)
    suites = run_suites(6, 20, seed)
    assert all(s.ok for s in suites)
    assert counts["enumerate_refinements"] == 0
    assert 0 < counts["refinements"] < 4 ** 6


@pytest.mark.parametrize("r", [2, 3])
def test_torsor_suite_fails_when_a_unit_translate_is_lost(monkeypatch, r):
    # a translation that leaves the base unmoved by e_0 spans only 2r - 1
    # directions; seed 3 draws no e_0 sample at r = 2, 3, so the full-image
    # rank check is the one check that fails
    real = verify.qtranslate

    def lossy(psi, xbar):
        return psi if xbar.coords == (1,) + (0,) * (2 * r - 1) else real(psi, xbar)

    monkeypatch.setattr(verify, "qtranslate", lossy)
    torsor = {s.name: s for s in run_suites(r, samples=4, seed=3)}["torsor"]
    assert (torsor.passed, torsor.total) == (4, 5)
