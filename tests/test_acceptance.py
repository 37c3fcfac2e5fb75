"""Acceptance suite: one test per contract item, each printing a PASS/FAIL line.

Every check is exact integer arithmetic; "tolerance" is equality.  Timed items
assert their stated wall-clock budgets.  Run with `pytest tests/test_acceptance.py -v`
to see the summary lines next to the test names.
"""

from __future__ import annotations

import random
import time
from functools import partial
from itertools import product

import pytest

from symsplit.cocycles import (
    coboundary_at,
    minus_id_constraint,
    principal_at,
)
from symsplit.jacobi import (
    JacobiElement,
    gamma_psi_member,
    jacobi_identity,
    random_member,
    reduce_modulus,
    reframe,
    splits,
)
from symsplit.mcg import aut_model, dehn_twist, pontryagin_coefficient, to_homotopy
from symsplit.quadratic import (
    QuadraticRefinement,
    enumerate_refinements,
    expected_orbit_sizes,
    orbit_decomposition,
    qdifference,
    qtranslate,
)
from symsplit.symplectic import (
    Covector,
    SymplecticMatrix,
    neg_identity,
    random_symplectic_word,
)

MODULI = (0, 4, 24, 240)
RANKS = (1, 2, 3, 4)


@pytest.fixture
def announce(capsys):
    def _announce(number, name, ok, elapsed=None):
        stamp = "" if elapsed is None else f"  ({elapsed:.2f}s)"
        with capsys.disabled():
            print(f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'}{stamp}")
    return _announce


def _random_covector(r, m, rng):
    span = 60 if m == 0 else m
    return Covector(tuple(rng.randrange(-span, span) for _ in range(2 * r)), m)


def _random_refinement(r, rng):
    return QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))


def test_01_orbit_censuses_match_closed_formulas(announce):
    start = time.monotonic()
    failures = []
    for r in range(1, 6):
        report = orbit_decomposition(r)
        labels = tuple(c.arf_label for c in report.orbits)
        sizes = tuple(c.size for c in report.orbits)
        if labels != (0, 1) or sizes != expected_orbit_sizes(r):
            failures.append((r, labels, sizes))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60
    announce(1, "orbit censuses for ranks 1..5 match the closed formulas", ok, elapsed)
    assert not failures, failures
    assert elapsed < 60


def test_02_splitting_decision_and_rank_one_section(announce):
    start = time.monotonic()
    failures = []
    # one verdict answers for every modulus in MODULI: 0 and multiples of 4
    for r in RANKS:
        if splits(r).splits != (r == 1):
            failures.append(("verdict", r))
    rng = random.Random(102)
    verdict = splits(1)
    section = verdict.section()
    for m in MODULI:
        def sigma(a):  # the section at modulus m
            return reduce_modulus(section(a), m)
        for _ in range(250):
            a = random_symplectic_word(1, rng.randint(0, 20), rng)
            b = random_symplectic_word(1, rng.randint(0, 20), rng)
            good = (sigma(a) * sigma(b) == sigma(a * b)
                    and sigma(a).a == a and sigma(a).modulus == m
                    and gamma_psi_member(sigma(a), verdict.base))
            if not good:
                failures.append(("section", m, a.rows, b.rows))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30
    announce(2, "extension splits exactly at rank 1; emitted section is homomorphic", ok, elapsed)
    assert not failures, failures[:3]
    assert elapsed < 30


def test_03_principal_cocycle_law_on_random_words(announce):
    start = time.monotonic()
    failures = 0
    rng = random.Random(103)
    for r in RANKS:
        for _ in range(1000):
            psi = _random_refinement(r, rng)
            a = random_symplectic_word(r, rng.randint(0, 20), rng)
            b = random_symplectic_word(r, rng.randint(0, 20), rng)
            lhs = principal_at(psi, a * b)
            rhs = principal_at(psi, a).act(b) + principal_at(psi, b)
            if lhs != rhs:
                failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30
    announce(3, "principal cocycle law holds on 1000 word pairs per rank 1..4", ok, elapsed)
    assert failures == 0
    assert elapsed < 30


def test_04_torsor_bijection_and_difference_inverse(announce):
    failures = []
    for r in (1, 2, 3):
        refinements = enumerate_refinements(r)
        covectors = [Covector(bits, 2) for bits in product((0, 1), repeat=2 * r)]
        for psi0 in refinements:
            image = {qtranslate(psi0, xbar) for xbar in covectors}
            if image != set(refinements):
                failures.append(("bijection", r, psi0))
            for xbar in covectors:
                if qdifference(qtranslate(psi0, xbar), psi0) != xbar:
                    failures.append(("difference", r, psi0, xbar))
            for psi1 in refinements:
                if qtranslate(psi0, qdifference(psi1, psi0)) != psi1:
                    failures.append(("translate", r, psi0, psi1))
    ok = not failures
    announce(4, "translation is a bijection and difference inverts it, ranks 1..3", ok)
    assert not failures, failures[:3]


def test_05_cocycle_additivity_and_negative_identity(announce):
    failures = []
    rng = random.Random(105)
    for r in (1, 2, 3):
        mats = [random_symplectic_word(r, rng.randint(1, 8), rng) for _ in range(6)]
        mats += [SymplecticMatrix.identity(r), neg_identity(r)]
        covectors = [Covector(bits, 2) for bits in product((0, 1), repeat=2 * r)]
        for psi in enumerate_refinements(r):
            if not principal_at(psi, neg_identity(r)).is_zero():
                failures.append(("neg_id", r, psi))
            for xbar in covectors:
                shifted = qtranslate(psi, xbar)
                for a in mats:
                    if principal_at(shifted, a) != principal_at(psi, a) + coboundary_at(xbar, a):
                        failures.append(("additivity", r, psi, xbar))
    for i in range(1000):
        m = MODULI[i % 4]
        r = 1 + i % 3
        x = _random_covector(r, m, rng)
        a = random_symplectic_word(r, rng.randint(0, 12), rng)
        if not minus_id_constraint(partial(coboundary_at, x), a):
            failures.append(("minus_id", m, r, x))
    ok = not failures
    announce(5, "cocycles add over translation and obey the -Id identities", ok)
    assert not failures, failures[:3]


def test_06_group_axioms_and_subgroup_closure(announce):
    start = time.monotonic()
    failures = []
    rng = random.Random(106)
    for r in RANKS:
        for m in MODULI:
            psi = _random_refinement(r, rng)
            e = jacobi_identity(r, m)
            pool = [random_member(psi, m, rng, word_length=6) for _ in range(40)]
            for _ in range(1000):
                g, h, k = (rng.choice(pool) for _ in range(3))
                gi = g.inverse()
                good = ((g * h) * k == g * (h * k)
                        and g * e == g and e * g == g
                        and g * gi == e and gi * g == e
                        and gamma_psi_member(g * h, psi)
                        and gamma_psi_member(gi, psi))
                if not good:
                    failures.append((r, m, g))
    elapsed = time.monotonic() - start
    ok = not failures
    announce(6, "group axioms and subgroup closure on 1000 triples per rank and modulus",
             ok, elapsed)
    assert not failures, failures[:2]


def test_07_projection_kernel_is_even_fiber(announce):
    failures = []
    for r in (1, 2):
        for psi in enumerate_refinements(r):
            for coords in product(range(4), repeat=2 * r):
                g = JacobiElement(Covector(coords, 4), SymplecticMatrix.identity(r))
                member = gamma_psi_member(g, psi)
                if member != all(c % 2 == 0 for c in coords):
                    failures.append((r, psi, coords))
    rng = random.Random(107)
    for r, m in ((3, 24), (2, 240), (3, 0)):
        psi = _random_refinement(r, rng)
        for _ in range(200):
            x = _random_covector(r, m, rng)
            g = JacobiElement(x, SymplecticMatrix.identity(r))
            if gamma_psi_member(g, psi) != all(c % 2 == 0 for c in x.coords):
                failures.append((r, m, x))
    ok = not failures
    announce(7, "kernel of the projection meets the subgroup in the even fiber", ok)
    assert not failures, failures[:3]


def test_08_reframing_between_subgroup_bases(announce):
    start = time.monotonic()
    failures = []
    rng = random.Random(108)
    for r in RANKS:
        for m in MODULI:
            psi = _random_refinement(r, rng)
            pool = [random_member(psi, m, rng, word_length=5) for _ in range(40)]
            for _ in range(1000):
                y = _random_covector(r, m, rng)
                target = qtranslate(psi, y.reduce_to(2))
                g, h = rng.choice(pool), rng.choice(pool)
                good = (gamma_psi_member(reframe(g, y), target)
                        and reframe(g * h, y) == reframe(g, y) * reframe(h, y))
                if not good:
                    failures.append((r, m, y))
    elapsed = time.monotonic() - start
    ok = not failures
    announce(8, "reframing carries one subgroup base onto another homomorphically",
             ok, elapsed)
    assert not failures, failures[:2]


def test_09_homotopy_quotient_kernel_and_lattice_index(announce):
    failures = []
    rng = random.Random(109)
    for p in (3, 7):
        smooth = aut_model(p, 1)
        c = smooth.params.c
        m = 2 * c
        # per coordinate: even residues survive, multiples of 2c die
        window = range(0, 4 * c, 2)
        if {alpha % m for alpha in window} != set(range(0, m, 2)):
            failures.append(("image", p))
        if {alpha for alpha in window if alpha % m == 0} != {0, m}:
            failures.append(("kernel_window", p))
        for r in (1, 2, 3):
            if m ** (2 * r) % 2 ** (2 * r) or m ** (2 * r) // 2 ** (2 * r) != c ** (2 * r):
                failures.append(("index", p, r))
            model = aut_model(p, r)
            for _ in range(100):
                g = jacobi_identity(r, 0)
                for i in range(1, r + 1):
                    g = g * dehn_twist(model, i, "u", 2 * rng.randint(-3 * c, 3 * c))
                    g = g * dehn_twist(model, i, "v", 2 * rng.randint(-3 * c, 3 * c))
                reduced = to_homotopy(model, g)
                if reduced.modulus != m:
                    failures.append(("modulus", p, r))
                if reduced.x.is_zero() != all(coord % m == 0 for coord in g.x.coords):
                    failures.append(("fiber_kernel", p, r, g.x.coords))
    ok = not failures
    announce(9, "homotopy quotient kills exactly the double-coefficient lattice", ok)
    assert not failures, failures[:3]


def test_10_twist_coefficient_table(announce):
    expected = (4, 12, 240, 5040)
    got = tuple(pontryagin_coefficient(j) for j in (1, 2, 3, 4))
    ok = got == expected
    announce(10, "tangential twist coefficients equal 4, 12, 240, 5040", ok)
    assert got == expected
