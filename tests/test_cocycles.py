from __future__ import annotations

import random
from functools import partial

import pytest

from symsplit.cocycles import (
    check_cocycle_law,
    coboundary_at,
    minus_id_constraint,
    principal_at,
)
from symsplit.jacobi import splits
from symsplit.quadratic import QuadraticRefinement, enumerate_refinements, qtranslate
from symsplit.symplectic import (
    Covector,
    SymplecticMatrix,
    Vector,
    neg_identity,
    random_symplectic_word,
    transvection,
)


def _random_words(r, count, seed, max_len=10):
    rng = random.Random(seed)
    return [random_symplectic_word(r, rng.randint(0, max_len), rng) for _ in range(count)]


def test_coboundary_at_hand_value():
    # x = u1*, A = twist at u1: x.A = (1, 1), so the coboundary value is (0, 1)
    x = Covector((1, 0))
    assert coboundary_at(x, transvection(Vector.u(1, 1))).coords == (0, 1)


def test_coboundary_at_refuses_a_rank_mismatch():
    with pytest.raises(ValueError, match="^rank mismatch$"):
        coboundary_at(Covector((1, 0)), SymplecticMatrix.identity(2))


def test_coboundary_law_all_moduli():
    rng = random.Random(3)
    for m in (0, 2, 4, 24):
        for r in (1, 2):
            for _ in range(10):
                span = 40 if m == 0 else m
                x = Covector(tuple(rng.randrange(-span, span) for _ in range(2 * r)), m)
                s = partial(coboundary_at, x)
                a = random_symplectic_word(r, rng.randint(0, 10), rng)
                b = random_symplectic_word(r, rng.randint(0, 10), rng)
                assert check_cocycle_law(s, a, b)
                assert s(a).modulus == m and s(a).rank == r


def test_principal_law_sampled():
    rng = random.Random(9)
    for r in (1, 2, 3):
        for _ in range(20):
            psi = QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))
            s = partial(principal_at, psi)
            a = random_symplectic_word(r, rng.randint(0, 10), rng)
            b = random_symplectic_word(r, rng.randint(0, 10), rng)
            assert check_cocycle_law(s, a, b)


def test_principal_vanishes_at_identity_and_neg_identity():
    for r in (1, 2, 3):
        for psi in enumerate_refinements(r):
            assert principal_at(psi, SymplecticMatrix.identity(r)).is_zero()
            assert principal_at(psi, neg_identity(r)).is_zero()


def test_principal_additive_in_translation():
    # s(psi + xbar) = s(psi) + s(xbar) pointwise, exhaustively at rank 1 and 2
    rng = random.Random(15)
    for r in (1, 2):
        mats = _random_words(r, 6, seed=100 + r) + [SymplecticMatrix.identity(r), neg_identity(r)]
        for psi in enumerate_refinements(r):
            for bits in [(0,) * 2 * r, (1,) * 2 * r, tuple(rng.randint(0, 1) for _ in range(2 * r))]:
                xbar = Covector(bits, 2)
                shifted = qtranslate(psi, xbar)
                for a in mats:
                    assert principal_at(shifted, a) == principal_at(psi, a) + coboundary_at(xbar, a)


def test_minus_id_constraint_for_coboundaries():
    rng = random.Random(21)
    for m in (0, 4, 24, 240):
        for _ in range(15):
            r = rng.randint(1, 3)
            span = 50 if m == 0 else m
            x = Covector(tuple(rng.randrange(-span, span) for _ in range(2 * r)), m)
            a = random_symplectic_word(r, rng.randint(0, 10), rng)
            assert minus_id_constraint(partial(coboundary_at, x), a)


def test_minus_id_constraint_rejects_odd_modulus():
    s = partial(coboundary_at, Covector((1, 0), 3))
    with pytest.raises(ValueError):
        minus_id_constraint(s, SymplecticMatrix.identity(1))


def test_witness_frozen_rank_one():
    assert splits(1, psi=QuadraticRefinement((1, 1))).witness == Covector((0, 0), 2)
    assert splits(1, psi=QuadraticRefinement((0, 0))).witness == Covector((1, 1), 2)
    assert splits(1, psi=QuadraticRefinement((0, 1))).witness == Covector((1, 0), 2)


def test_witness_absent_above_rank_one():
    for r in (2, 3):
        assert splits(r, psi=QuadraticRefinement.zero(r)).witness is None
        assert splits(r, psi=QuadraticRefinement.arf_one(r)).witness is None


def test_witness_makes_cocycles_agree():
    # when a witness exists, the principal cocycle IS the coboundary of the witness
    psi = QuadraticRefinement((0, 0))
    xbar = splits(1, psi=psi).witness
    for a in _random_words(1, 20, seed=33):
        assert principal_at(psi, a) == coboundary_at(xbar, a)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_witness_coboundary_is_the_principal_cocycle_on_every_base(r):
    # every rank-one base has a witness and no base of higher rank has one; test_jacobi.py
    # checks each witness against an object-level search
    words = _random_words(r, 5, seed=40 + r)
    for psi in enumerate_refinements(r):
        xbar = splits(r, psi=psi).witness
        assert (xbar is not None) == (r == 1)
        if xbar is not None:
            for a in words:
                assert principal_at(psi, a) == coboundary_at(xbar, a)


def test_tabulated_negative_control():
    # the law forces s(T^2) = s(T).T + s(T) = (0, 1); tabulating (0, 0) breaks it
    t = transvection(Vector.u(1, 1))
    table = {
        SymplecticMatrix.identity(1): Covector((0, 0), 2),
        t: Covector((1, 0), 2),
        t * t: Covector((0, 0), 2),
    }
    assert not check_cocycle_law(table.__getitem__, t, t)
    table[t * t] = Covector((0, 1), 2)
    assert check_cocycle_law(table.__getitem__, t, t)
