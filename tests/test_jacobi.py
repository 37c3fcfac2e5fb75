from __future__ import annotations

import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from symsplit.cocycles import coboundary_at, principal_at
from symsplit.jacobi import (
    JacobiElement,
    default_base_refinement,
    gamma_psi_member,
    include_fiber,
    jacobi_identity,
    jinv,
    jmul,
    random_member,
    reduce_modulus,
    reframe,
    splits,
)
from symsplit.mcg import ManifoldParams, MCGModel
from symsplit.quadratic import (QuadraticRefinement, enumerate_refinements, qact, qdifference, qeval,
                                qtranslate)
from symsplit.symplectic import (Covector, SymplecticMatrix, Vector, phi_eval, random_symplectic_word,
                                 transvection)

MODULI = (0, 4, 24, 240)


def _random_element(r, m, rng, word_length=8):
    a = random_symplectic_word(r, rng.randint(0, word_length), rng)
    span = 30 if m == 0 else m
    x = Covector(tuple(rng.randrange(-span, span) for _ in range(2 * r)), m)
    return JacobiElement(x, a)


def test_identity_and_rank_guard():
    e = jacobi_identity(2, 24)
    assert e.rank == 2 and e.modulus == 24
    assert e.x.is_zero() and e.a == SymplecticMatrix.identity(2)
    with pytest.raises(ValueError):
        JacobiElement(Covector((0, 0)), SymplecticMatrix.identity(2))


def test_product_and_inverse_hand_values():
    # ((1,2), Id) . ((3,4), Id) = ((4,6), Id): pure translations add
    g = JacobiElement(Covector((1, 2)), SymplecticMatrix.identity(1))
    h = JacobiElement(Covector((3, 4)), SymplecticMatrix.identity(1))
    assert (g * h).x.coords == (4, 6)
    # inverse of (x, Id) is (-x, Id)
    assert g.inverse().x.coords == (-1, -2)
    # with a matrix part: (x, A)^-1 = (-x.A^-1, A^-1)
    t = transvection(Vector.u(1, 1))
    k = JacobiElement(Covector((1, 0)), t)
    ki = k.inverse()
    assert ki.a == t.inverse()
    assert ki.x.coords == (-1, 1)


def test_mismatch_guards():
    g = jacobi_identity(1, 0)
    with pytest.raises(ValueError):
        jmul(g, jacobi_identity(2, 0))
    with pytest.raises(ValueError):
        jmul(g, jacobi_identity(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.sampled_from(MODULI), st.integers(0, 2 ** 32))
def test_group_axioms(r, m, seed):
    rng = random.Random(seed)
    g, h, k = (_random_element(r, m, rng) for _ in range(3))
    e = jacobi_identity(r, m)
    assert (g * h) * k == g * (h * k)
    assert g * e == g and e * g == g
    assert g * g.inverse() == e and g.inverse() * g == e


def test_projection_is_a_homomorphism():
    rng = random.Random(41)
    for _ in range(20):
        g = _random_element(2, 24, rng)
        h = _random_element(2, 24, rng)
        assert (g * h).a == g.a * h.a


def test_fiber_inclusion():
    x = Covector((2, 4, 0, -6))
    g = include_fiber(x)
    assert g.a == SymplecticMatrix.identity(2) and g.x == x
    with pytest.raises(ValueError):
        include_fiber(Covector((1, 2, 3, 4)))
    # the identity takes its rank from the covector, so no rank can mismatch
    assert include_fiber(Covector((2, 4))).rank == 1
    assert include_fiber(Covector((0,) * 6, 24)).rank == 3
    # fiber elements multiply by adding covectors, an exact lattice copy
    y = Covector((0, 2, -2, 8))
    assert include_fiber(x) * include_fiber(y) == include_fiber(x + y)


def test_membership_even_fiber_exhaustive_rank_one():
    # over the identity matrix, membership in the zero-base subgroup is
    # exactly evenness of both coordinates
    psi = QuadraticRefinement.zero(1)
    for coords in product(range(4), repeat=2):
        g = JacobiElement(Covector(coords, 4), SymplecticMatrix.identity(1))
        assert gamma_psi_member(g, psi) == all(c % 2 == 0 for c in coords)


def test_membership_follows_principal_cocycle():
    rng = random.Random(47)
    for r in (1, 2):
        psi = QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))
        for m in MODULI:
            for _ in range(10):
                g = random_member(psi, m, rng)
                assert g.modulus == m
                assert gamma_psi_member(g, psi)
                assert g.x.reduce_to(2) == principal_at(psi, g.a)


def test_membership_is_multiplicative():
    rng = random.Random(53)
    psi = QuadraticRefinement((0, 1, 1, 0))
    for m in MODULI:
        for _ in range(10):
            g = random_member(psi, m, rng)
            h = random_member(psi, m, rng)
            assert gamma_psi_member(g * h, psi)
            assert gamma_psi_member(g.inverse(), psi)


def test_membership_guards():
    g = jacobi_identity(1, 3)
    with pytest.raises(ValueError):
        gamma_psi_member(g, QuadraticRefinement.zero(1))
    with pytest.raises(ValueError):
        gamma_psi_member(jacobi_identity(2), QuadraticRefinement.zero(1))


def test_reduce_modulus():
    g = JacobiElement(Covector((26, -2)), transvection(Vector.u(1, 1)))
    h = reduce_modulus(g, 24)
    assert h.x.coords == (2, 22) and h.modulus == 24 and h.a == g.a
    with pytest.raises(ValueError):
        reduce_modulus(h, 5)
    # a non-integral modulus is refused, not truncated to a divisor (2.9 used to reduce mod 2)
    for bad in (2.9, "12", None):
        message = rf"^modulus must be a non-negative integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            reduce_modulus(h, bad)
    assert reduce_modulus(h, 12.0) == reduce_modulus(h, 12) and type(reduce_modulus(h, 12.0).modulus) is int


def test_reframe_carries_membership():
    rng = random.Random(59)
    for r in (1, 2):
        for m in MODULI:
            psi = QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))
            span = 30 if m == 0 else m
            y = Covector(tuple(rng.randrange(-span, span) for _ in range(2 * r)), m)
            target = qtranslate(psi, y.reduce_to(2))
            for _ in range(8):
                g = random_member(psi, m, rng)
                cg = reframe(g, y)
                assert gamma_psi_member(cg, target)
                assert cg.a == g.a
                # conjugation: reframe really is (y, Id) g (y, Id)^-1
                yid = JacobiElement(y, SymplecticMatrix.identity(r))
                assert cg == yid * g * yid.inverse()


def test_reframe_is_a_homomorphism():
    rng = random.Random(61)
    y = Covector((3, -1, 7, 2))
    for _ in range(10):
        g = _random_element(2, 0, rng)
        h = _random_element(2, 0, rng)
        assert reframe(g * h, y) == reframe(g, y) * reframe(h, y)
    assert reframe(reframe(g, y), -y) == g


_V1, _V2 = Vector((1, 0)), Vector((1, 0, 0, 1))
_C1, _C2 = Covector((1, 0), 24), Covector((1, 0, 0, 1), 24)
_I1, _I2 = SymplecticMatrix.identity(1), SymplecticMatrix.identity(2)
_PSI2 = QuadraticRefinement.zero(2)
_G2 = jacobi_identity(2, 24)


@pytest.mark.parametrize("call,message", [
    (lambda: _V1 + _V2, "rank mismatch"),
    (lambda: _V1 - _V2, "rank mismatch"),
    (lambda: _C1 + _C2, "rank mismatch"),
    (lambda: _C1 - Covector((1, 0), 4), "modulus mismatch"),
    (lambda: _C1.evaluate(_V2), "rank mismatch"),
    (lambda: _I1 * _I2, "rank mismatch"),
    (lambda: _I1.apply(_V2), "rank mismatch"),
    (lambda: qtranslate(_PSI2, Covector((1, 0), 2)), "rank mismatch"),
    (lambda: qdifference(_PSI2, QuadraticRefinement.zero(1)), "rank mismatch"),
    (lambda: reframe(_G2, _C1), "rank mismatch"),
    (lambda: reframe(_G2, Covector((1, 0, 0, 1), 4)), "modulus mismatch"),
    (lambda: phi_eval(_V1, _V2), "rank mismatch"),
    (lambda: _C1.act(_I2), "rank mismatch"),
    (lambda: qeval(_PSI2, _V1), "rank mismatch"),
    (lambda: qact(_PSI2, _I1), "rank mismatch"),
    (lambda: JacobiElement(_C1, _I2), "rank mismatch"),
    (lambda: jmul(_G2, jacobi_identity(1, 24)), "rank mismatch"),
    (lambda: jmul(_G2, jacobi_identity(2, 240)), "modulus mismatch"),
    (lambda: gamma_psi_member(_G2, QuadraticRefinement.zero(1)), "rank mismatch"),
    (lambda: splits(1, psi=_PSI2), "rank mismatch"),
    (lambda: MCGModel(ManifoldParams(3, 1), 0, _PSI2), "rank mismatch"),
], ids=["vector_add", "vector_sub", "covector_rank", "covector_modulus", "evaluate", "matrix_mul",
        "apply", "qtranslate", "qdifference", "reframe_rank", "reframe_modulus", "phi_eval",
        "covector_act", "qeval", "qact", "jacobi_element", "jmul_rank", "jmul_modulus",
        "gamma_psi_member", "splits_base", "mcg_base"])
def test_operands_of_different_rank_or_modulus_are_refused(call, message):
    # one rule, one message: the operation that needs the rule checks it, nothing before it
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_default_base_refinement():
    assert default_base_refinement(1) == QuadraticRefinement((1, 1))
    assert default_base_refinement(2) == QuadraticRefinement.zero(2)
    assert default_base_refinement(3) == QuadraticRefinement.zero(3)


@pytest.mark.parametrize("m", MODULI)
def test_splits_rank_one(m):
    verdict = splits(1)
    assert verdict.splits and verdict.rank == 1
    assert verdict.witness == Covector((0, 0), 2)
    assert verdict.fixed_refinement == QuadraticRefinement((1, 1))
    assert verdict.candidates_checked == 1
    # one verdict serves every modulus: its section, reduced to m, lands in the model at m
    model = MCGModel(ManifoldParams(3, 1), m, verdict.base)
    sigma = verdict.section()
    t, s = transvection(Vector.u(1, 1)), transvection(Vector.v(1, 1))
    for a in (t, s, t * s):
        assert model.contains(reduce_modulus(sigma(a), m))


@pytest.mark.parametrize("r,m", [(2, 0), (2, 4), (3, 0), (3, 24), (4, 0)])
def test_splits_fails_above_rank_one(r, m):
    verdict = splits(r)
    assert not verdict.splits
    assert verdict.witness is None and verdict.fixed_refinement is None
    assert verdict.candidates_checked == 4 ** r
    with pytest.raises(ValueError):
        verdict.section()
    # the one candidate section, from the all-ones translate, leaves the model at m at T(u1 + u2)
    ones = QuadraticRefinement((1,) * (2 * r))
    x = Covector(qdifference(ones, verdict.base).coords)
    w = transvection(Vector.u(r, 1) + Vector.u(r, 2))
    model = MCGModel(ManifoldParams(3, r), m, verdict.base)
    assert not model.contains(reduce_modulus(JacobiElement(coboundary_at(x, w), w), m))


def test_splits_verdict_base_independent():
    rng = random.Random(67)
    for r in (1, 2):
        expected = r == 1
        for _ in range(5):
            psi = QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))
            assert splits(r, psi=psi).splits == expected


def _object_level_split_search(psi):
    """Lex-least translate fixed at every nonzero vector, found object by object."""
    n = 2 * psi.rank
    nonzero = [Vector(bits) for bits in product((0, 1), repeat=n) if any(bits)]
    for checked, bits in enumerate(product((0, 1), repeat=n), 1):
        xbar = Covector(bits, 2)
        shifted = qtranslate(psi, xbar)
        if all(qeval(shifted, v) == 1 for v in nonzero):
            return xbar, shifted, checked
    return None, None, 4 ** psi.rank


def _assert_matches_object_level_search(psi):
    verdict = splits(psi.rank, psi=psi)
    xbar, shifted, checked = _object_level_split_search(psi)
    assert verdict.splits == (xbar is not None)
    assert (verdict.witness, verdict.fixed_refinement, verdict.candidates_checked) == (
        xbar, shifted, checked)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_splits_matches_object_level_search_on_every_base(r):
    for psi in enumerate_refinements(r):
        _assert_matches_object_level_search(psi)


@pytest.mark.parametrize("r", [4, 5, 6])
def test_splits_matches_object_level_search_on_seeded_bases(r):
    rng = random.Random(1000 + r)
    for _ in range(4):
        _assert_matches_object_level_search(
            QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r))))


def test_splits_guards():
    with pytest.raises(ValueError):
        splits(32)
    with pytest.raises(ValueError):
        splits(1, psi=QuadraticRefinement.zero(2))
    # splits takes no modulus: a stale positional modulus or base is a TypeError
    for stale in ((1, 24), (1, 0, QuadraticRefinement.zero(1))):
        with pytest.raises(TypeError):
            splits(*stale)


def test_section_rank_one_is_homomorphic():
    rng = random.Random(71)
    verdict = splits(1)
    section = verdict.section()
    psi = verdict.base
    def sigma(a):  # the section at modulus 24
        return reduce_modulus(section(a), 24)
    for _ in range(30):
        a = random_symplectic_word(1, rng.randint(0, 10), rng)
        b = random_symplectic_word(1, rng.randint(0, 10), rng)
        assert sigma(a) * sigma(b) == sigma(a * b)
        assert sigma(a).a == a
        assert gamma_psi_member(sigma(a), psi)
        # over the Arf-1 base the witness is zero, so the section is literally A -> (0, A)
        assert sigma(a) == JacobiElement(Covector.zero(1, 24), a)


def test_section_from_nonzero_witness():
    # base (0, 0) at rank 1 has witness (1, 1); the section is then a genuine coboundary
    rng = random.Random(73)
    psi = QuadraticRefinement.zero(1)
    verdict = splits(1, psi=psi)
    assert verdict.witness == Covector((1, 1), 2)
    section = verdict.section()
    def sigma(a):  # the section at modulus 4
        return reduce_modulus(section(a), 4)
    for _ in range(20):
        a = random_symplectic_word(1, rng.randint(0, 8), rng)
        b = random_symplectic_word(1, rng.randint(0, 8), rng)
        assert sigma(a) * sigma(b) == sigma(a * b)
        assert gamma_psi_member(sigma(a), psi)


def test_section_from_witness_standalone():
    sigma = splits(1, psi=QuadraticRefinement((0, 0))).section()
    g = sigma(transvection(Vector.u(1, 1)))
    x = Covector((1, 1))
    assert g.x == x.act(g.a) - x


def test_extension_model():
    psi = QuadraticRefinement.zero(2)
    assert gamma_psi_member(jacobi_identity(2, 24), psi)
    rng = random.Random(79)
    g = random_member(psi, 24, rng)
    assert gamma_psi_member(g, psi)
    assert not gamma_psi_member(JacobiElement(Covector.unit(2, 0, 24), SymplecticMatrix.identity(2)), psi)
    assert not splits(2, psi=psi).splits
    with pytest.raises(ValueError):
        splits(1, psi=psi)


def test_qdifference_consistency_with_membership():
    # membership can be restated through qdifference: x mod 2 = psi.A - psi
    rng = random.Random(83)
    psi = QuadraticRefinement((1, 0))
    from symsplit.quadratic import qact
    for _ in range(10):
        g = random_member(psi, 0, rng)
        assert qdifference(qact(psi, g.a), psi) == g.x.reduce_to(2)
