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


def test_samples_must_be_an_integer():
    # a non-integral count is refused, not a TypeError from range(); 2.0 is read as 2
    for bad in (2.5, float("nan"), float("inf"), "3", None):
        with pytest.raises(ValueError, match=r"^samples must be an integer, got "):
            run_suites(1, bad, 5)
    assert run_suites(1, 2.0, 5) == run_suites(1, 2, 5)


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


@pytest.mark.parametrize("negative_control", [False, True])
@pytest.mark.parametrize("samples", [1, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_suite_totals_follow_closed_forms(r, samples, negative_control):
    # each total is the number of laws a suite checks per sample, times the samples:
    # one law per sample, plus the torsor's one full-image rank check; two laws
    # (the -Id constraint and the principal cocycle at -Id) per minus_id sample;
    # associativity, two-sided identity, inverse and closure per group_axioms
    # sample; membership, multiplicativity and undoing per reframe sample; one
    # homomorphism check per section sample at r = 1 and two non-splitting
    # verdicts (moduli 0 and 4) above; one planted failure in the control
    s = samples
    want = {"cocycle_law": s, "torsor": s + 1, "additivity": s, "minus_id": 2 * s,
            "group_axioms": 4 * s, "reframe": 3 * s, "section": s if r == 1 else 2}
    if negative_control:
        want["negative_control"] = 1
    suites = run_suites(r, samples, seed=7, negative_control=negative_control)
    assert {x.name: x.total for x in suites} == want
    assert [x.name for x in suites] == list(want)


@pytest.mark.parametrize("r", [1, 2])
def test_failed_check_counts_against_its_suite(monkeypatch, r):
    # membership is checked once per group_axioms sample, once per reframe
    # sample and once per r = 1 section sample; refusing it fails exactly those
    monkeypatch.setattr(verify, "gamma_psi_member", lambda g, psi: False)
    s = 5
    suites = {x.name: x for x in run_suites(r, s, seed=7, negative_control=True)}
    assert (suites["group_axioms"].passed, suites["group_axioms"].total) == (3 * s, 4 * s)
    assert (suites["reframe"].passed, suites["reframe"].total) == (2 * s, 3 * s)
    if r == 1:
        assert (suites["section"].passed, suites["section"].total) == (0, s)
    failing = {"group_axioms", "reframe", "negative_control"} | ({"section"} if r == 1 else set())
    assert {name for name, x in suites.items() if not x.ok} == failing
