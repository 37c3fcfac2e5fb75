"""Seeded property suites behind the `verify` CLI command.

Every suite draws from one shared seeded generator, so a fixed (r, samples,
seed) triple always produces the same report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .cocycles import check_cocycle_law, coboundary_at, minus_id_constraint, principal_at
from .jacobi import gamma_psi_member, jacobi_identity, jinv, jmul, random_member, reframe, splits
from .quadratic import QuadraticRefinement, qdifference, qtranslate
from .symplectic import (Covector, SymplecticMatrix, Vector, _check_rank, neg_identity,
                         random_symplectic_word, transvection)

SUITE_MODULI = (0, 4, 24, 240)
VERIFY_RANK_LIMIT = 8


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    total: int

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def _random_refinement(r: int, rng: random.Random) -> QuadraticRefinement:
    return QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))


def _random_bit_covector(r: int, rng: random.Random) -> Covector:
    return Covector(tuple(rng.randint(0, 1) for _ in range(2 * r)), 2)


def _random_covector(r: int, modulus: int, rng: random.Random) -> Covector:
    if modulus == 0:
        coords = tuple(rng.randint(-99, 99) for _ in range(2 * r))
    else:
        coords = tuple(rng.randrange(modulus) for _ in range(2 * r))
    return Covector(coords, modulus)


def _word(r: int, rng: random.Random, max_len: int = 10) -> SymplecticMatrix:
    return random_symplectic_word(r, rng.randint(0, max_len), rng)


def _cocycle_law_suite(r: int, samples: int, rng: random.Random) -> SuiteResult:
    passed = 0
    for _ in range(samples):
        s = partial(principal_at, _random_refinement(r, rng))
        passed += check_cocycle_law(s, _word(r, rng), _word(r, rng))
    return SuiteResult("cocycle_law", passed, samples)


def _torsor_suite(r: int, samples: int, rng: random.Random) -> SuiteResult:
    # Full image: translating by a sum of unit covectors XORs their translates
    # of the zero base, so translation reaches every refinement (transitive)
    # iff the 2r unit translates are linearly independent over F2, and then,
    # as there are as many covectors as refinements, by exactly one covector
    # (free).  The translates' states are reduced to an XOR basis kept in
    # decreasing order, so min(t, t ^ b) clears b's leading 1 from t.  The
    # samples below check that translates compose and invert by XOR.
    base = QuadraticRefinement.zero(r)
    basis: list[int] = []
    for j in range(2 * r):
        t = qtranslate(base, Covector.unit(r, j, 2)).state
        for b in basis:
            t = min(t, t ^ b)
        if t:
            basis = sorted(basis + [t], reverse=True)
    passed = int(len(basis) == 2 * r)
    for _ in range(samples):
        psi = _random_refinement(r, rng)
        xbar = _random_bit_covector(r, rng)
        ok = qdifference(qtranslate(psi, xbar), psi) == xbar
        ok = ok and qtranslate(qtranslate(psi, xbar), xbar) == psi
        passed += ok
    return SuiteResult("torsor", passed, samples + 1)


def _additivity_suite(r: int, samples: int, rng: random.Random) -> SuiteResult:
    passed = 0
    for _ in range(samples):
        psi = _random_refinement(r, rng)
        xbar = _random_bit_covector(r, rng)
        a = _word(r, rng)
        lhs = principal_at(qtranslate(psi, xbar), a)
        passed += lhs == principal_at(psi, a) + coboundary_at(xbar, a)
    return SuiteResult("additivity", passed, samples)


def _minus_id_suite(r: int, samples: int, rng: random.Random) -> SuiteResult:
    passed = 0
    neg = neg_identity(r)
    for k in range(samples):
        m = SUITE_MODULI[k % len(SUITE_MODULI)]
        s = partial(coboundary_at, _random_covector(r, m, rng))
        passed += minus_id_constraint(s, _word(r, rng))
        passed += principal_at(_random_refinement(r, rng), neg).is_zero()
    return SuiteResult("minus_id", passed, 2 * samples)


def _group_axioms_suite(r: int, samples: int, rng: random.Random) -> SuiteResult:
    passed = 0
    psi = QuadraticRefinement.zero(r)
    for k in range(samples):
        m = SUITE_MODULI[k % len(SUITE_MODULI)]
        e = jacobi_identity(r, m)
        g = random_member(psi, m, rng, word_length=6)
        h = random_member(psi, m, rng, word_length=6)
        w = random_member(psi, m, rng, word_length=6)
        gh = jmul(g, h)
        passed += jmul(gh, w) == jmul(g, jmul(h, w))
        passed += jmul(g, e) == g and jmul(e, g) == g
        passed += jmul(g, jinv(g)) == e
        passed += gamma_psi_member(gh, psi)
    return SuiteResult("group_axioms", passed, 4 * samples)


def _reframe_suite(r: int, samples: int, rng: random.Random) -> SuiteResult:
    passed = 0
    psi = QuadraticRefinement.zero(r)
    for k in range(samples):
        m = SUITE_MODULI[k % len(SUITE_MODULI)]
        g = random_member(psi, m, rng, word_length=5)
        h = random_member(psi, m, rng, word_length=5)
        y = _random_covector(r, m, rng)
        target = qtranslate(psi, y.reduce_to(2))
        cg = reframe(g, y)
        passed += gamma_psi_member(cg, target)
        passed += reframe(jmul(g, h), y) == jmul(cg, reframe(h, y))
        passed += reframe(cg, -y) == g
    return SuiteResult("reframe", passed, 3 * samples)


def _section_suite(r: int, samples: int, rng: random.Random) -> SuiteResult:
    if r == 1:
        passed = 0
        verdict = splits(1, 0)
        sigma = verdict.section()
        for _ in range(samples):
            a, b = _word(1, rng), _word(1, rng)
            ok = jmul(sigma(a), sigma(b)) == sigma(a * b)
            ok = ok and sigma(a).a == a
            ok = ok and gamma_psi_member(sigma(a), verdict.base)
            passed += ok
        return SuiteResult("section", passed, samples)
    passed = (not splits(r, 0).splits) + (not splits(r, 4).splits)
    return SuiteResult("section", passed, 2)


def _negative_control_suite(r: int) -> SuiteResult:
    # deliberately law-violating table; the law check must count a failure
    t = transvection(Vector.u(r, 1))
    table = {SymplecticMatrix.identity(r): Covector.zero(r, 2),
             t: Covector.unit(r, 0, 2),
             t * t: Covector.zero(r, 2)}
    holds = check_cocycle_law(table.__getitem__, t, t)
    return SuiteResult("negative_control", int(holds), 1)


def run_suites(r: int, samples: int, seed: int, negative_control: bool = False) -> tuple[SuiteResult, ...]:
    r = _check_rank(r, VERIFY_RANK_LIMIT)
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = random.Random(seed)
    results = [
        _cocycle_law_suite(r, samples, rng),
        _torsor_suite(r, samples, rng),
        _additivity_suite(r, samples, rng),
        _minus_id_suite(r, samples, rng),
        _group_axioms_suite(r, samples, rng),
        _reframe_suite(r, samples, rng),
        _section_suite(r, samples, rng),
    ]
    if negative_control:
        results.append(_negative_control_suite(r))
    return tuple(results)
