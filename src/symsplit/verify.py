"""Seeded property suites behind the `verify` CLI command.

A suite is a generator: it yields one bool per check, in a fixed order, and
its total is the number of checks it yields.  All suites draw from one shared
seeded generator in `_SUITES` order, one draw call per sampled value: a
refinement is one `getrandbits(2r)`, a covector or a member's noise one
`choices` of all its coordinates, a word one `randint` for its length and one
`choices` of all its steps.  So a fixed (r, samples, seed) triple always
produces the same report, and a new or moved draw in one suite changes the
samples of every later suite.  The `verify` goldens hold pass counts, so
such a change alters one only if a check then fails.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import cycle, islice
from collections.abc import Iterator

from .cocycles import check_cocycle_law, coboundary_at, minus_id_constraint, principal_at
from .jacobi import gamma_psi_member, jacobi_identity, jinv, jmul, random_member, reframe, splits
from .limits import VERIFY_RANK_LIMIT, VERIFY_SAMPLES_LIMIT
from .quadratic import QuadraticRefinement, qact, qdifference, qeval, qtranslate
from .symplectic import (Covector, SymplecticMatrix, Vector, _Value, _check_int, neg_identity,
                         random_symplectic_word, transvection)

SUITE_MODULI = (0, 4, 24, 240)


class SuiteResult(_Value):
    __slots__ = ("name", "passed", "total")

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def _random_refinement(r: int, rng: random.Random) -> QuadraticRefinement:
    return QuadraticRefinement._trusted(2 * r, rng.getrandbits(2 * r))


def _random_covector(r: int, modulus: int, rng: random.Random) -> Covector:
    return Covector(rng.choices(range(-99, 100) if modulus == 0 else range(modulus), k=2 * r), modulus)


def _word(r: int, rng: random.Random) -> SymplecticMatrix:
    return random_symplectic_word(r, rng.randint(0, 10), rng)


def _cocycle_law_suite(r: int, samples: int, rng: random.Random) -> Iterator[bool]:
    for _ in range(samples):
        s = partial(principal_at, _random_refinement(r, rng))
        yield check_cocycle_law(s, _word(r, rng), _word(r, rng))


def _torsor_suite(r: int, samples: int, rng: random.Random) -> Iterator[bool]:
    # Full image: each unit covector e_j carries the zero base to the refinement
    # whose basis values are e_j.  With the samples' law that translates compose
    # and invert by XOR, translation reaches every refinement by exactly one
    # covector (free and transitive).
    base = QuadraticRefinement.zero(r)
    units = [Covector.unit(r, j, 2) for j in range(2 * r)]
    yield all(qtranslate(base, e).basis_values == e.coords for e in units)
    for _ in range(samples):
        psi = _random_refinement(r, rng)
        xbar = _random_covector(r, 2, rng)
        ok = qdifference(qtranslate(psi, xbar), psi) == xbar
        yield ok and qtranslate(qtranslate(psi, xbar), xbar) == psi


def _additivity_suite(r: int, samples: int, rng: random.Random) -> Iterator[bool]:
    for _ in range(samples):
        psi = _random_refinement(r, rng)
        xbar = _random_covector(r, 2, rng)
        a = _word(r, rng)
        lhs = principal_at(qtranslate(psi, xbar), a)
        yield lhs == principal_at(psi, a) + coboundary_at(xbar, a)


def _minus_id_suite(r: int, samples: int, rng: random.Random) -> Iterator[bool]:
    neg = neg_identity(r)
    for m in islice(cycle(SUITE_MODULI), samples):
        s = partial(coboundary_at, _random_covector(r, m, rng))
        yield minus_id_constraint(s, _word(r, rng))
        yield principal_at(_random_refinement(r, rng), neg).is_zero()


def _group_axioms_suite(r: int, samples: int, rng: random.Random) -> Iterator[bool]:
    psi = QuadraticRefinement.zero(r)
    for m in islice(cycle(SUITE_MODULI), samples):
        e = jacobi_identity(r, m)
        g = random_member(psi, m, rng, word_length=6)
        h = random_member(psi, m, rng, word_length=6)
        w = random_member(psi, m, rng, word_length=6)
        gh = jmul(g, h)
        yield jmul(gh, w) == jmul(g, jmul(h, w))
        yield jmul(g, e) == g and jmul(e, g) == g
        yield jmul(g, jinv(g)) == e
        yield gamma_psi_member(gh, psi)


def _reframe_suite(r: int, samples: int, rng: random.Random) -> Iterator[bool]:
    psi = QuadraticRefinement.zero(r)
    for m in islice(cycle(SUITE_MODULI), samples):
        g = random_member(psi, m, rng, word_length=5)
        h = random_member(psi, m, rng, word_length=5)
        y = _random_covector(r, m, rng)
        target = qtranslate(psi, y.reduce_to(2))
        cg = reframe(g, y)
        yield gamma_psi_member(cg, target)
        yield reframe(jmul(g, h), y) == jmul(cg, reframe(h, y))
        yield reframe(cg, -y) == g


def _section_suite(r: int, samples: int, rng: random.Random) -> Iterator[bool]:
    if r > 1:
        # The obstruction: a fixed refinement is 1 at every u_i and v_i, so it
        # is the all-ones one, which the refinement identity makes 0 at
        # w = u_1 + u_2; the transvection at w then moves it.
        ones = QuadraticRefinement((1,) * (2 * r))
        u1, u2 = Vector.u(r, 1), Vector.u(r, 2)
        w = u1 + u2
        yield qeval(ones, u1) == qeval(ones, u2) == 1 and qeval(ones, w) == 0
        yield qact(ones, transvection(w)) != ones
        return
    verdict = splits(1)
    sigma = verdict.section()
    for _ in range(samples):
        a, b = _word(1, rng), _word(1, rng)
        ok = jmul(sigma(a), sigma(b)) == sigma(a * b)
        ok = ok and sigma(a).a == a
        yield ok and gamma_psi_member(sigma(a), verdict.base)


def _negative_control_suite(r: int, samples: int, rng: random.Random) -> Iterator[bool]:
    # deliberately law-violating table; the law check must count a failure.
    # It draws nothing from rng, so it leaves the other suites' samples alone.
    t = transvection(Vector.u(r, 1))
    table = {SymplecticMatrix.identity(r): Covector.zero(r, 2),
             t: Covector.unit(r, 0, 2),
             t * t: Covector.zero(r, 2)}
    yield check_cocycle_law(table.__getitem__, t, t)


_SUITES = (("cocycle_law", _cocycle_law_suite), ("torsor", _torsor_suite),
           ("additivity", _additivity_suite), ("minus_id", _minus_id_suite),
           ("group_axioms", _group_axioms_suite), ("reframe", _reframe_suite),
           ("section", _section_suite))


def run_suites(r: int, samples: int, seed: int, negative_control: bool = False) -> tuple[SuiteResult, ...]:
    r = _check_int(r, "rank", 1, VERIFY_RANK_LIMIT)
    n = _check_int(samples, "samples", 1, VERIFY_SAMPLES_LIMIT)
    rng = random.Random(seed)
    suites = _SUITES + ((("negative_control", _negative_control_suite),) if negative_control else ())
    results = []
    for name, suite in suites:
        checks = list(suite(r, n, rng))
        results.append(SuiteResult(name, sum(checks), len(checks)))
    return tuple(results)
