from __future__ import annotations

import math
import random
import re

import pytest

import symsplit.mcg
from symsplit.jacobi import gamma_psi_member, jacobi_identity, random_member, splits
from symsplit.mcg import (
    HOMOTOPY,
    SMOOTH,
    ManifoldParams,
    MCGModel,
    aut_model,
    dehn_twist,
    homotopy_model,
    pontryagin_coefficient,
    pontryagin_parts,
    splitting_theorem_verdict,
    to_homotopy,
)
from symsplit.quadratic import QuadraticRefinement, orbit_decomposition
from symsplit.symplectic import Covector, SymplecticMatrix


def test_coefficient_orders():
    assert ManifoldParams(3, 1).c == 12
    assert ManifoldParams(7, 4).c == 120
    # the homotopy modulus is twice the coefficient order, whatever the rank
    assert ManifoldParams(3, 1).homotopy_modulus == ManifoldParams(3, 5).homotopy_modulus == 24
    assert ManifoldParams(7, 4).homotopy_modulus == 240
    with pytest.raises(ValueError):
        ManifoldParams(5, 1)
    with pytest.raises(ValueError):
        ManifoldParams(3, 0)


def test_model_construction():
    m = aut_model(3, 2)
    assert m.flavor == SMOOTH and m.modulus == 0 and m.rank == 2
    assert m.base == QuadraticRefinement.zero(2)
    h = homotopy_model(3, 2)
    assert h.flavor == HOMOTOPY and h.modulus == 24
    assert homotopy_model(7, 1).modulus == 240
    # the flavor is read off the modulus, and MCGModel builds a model at any multiple of 4
    params, base = ManifoldParams(3, 1), QuadraticRefinement.zero(1)
    assert MCGModel(params, 0, base).flavor == SMOOTH
    assert MCGModel(params, 24, base).flavor == HOMOTOPY
    assert MCGModel(ManifoldParams(7, 1), 120, base).modulus == 120


def test_model_invariants():
    params = ManifoldParams(3, 1)
    base = QuadraticRefinement.zero(1)
    with pytest.raises(ValueError):
        MCGModel(params, 6, base)
    with pytest.raises(ValueError):
        MCGModel(params, -4, base)
    with pytest.raises(ValueError):
        MCGModel(params, 0, QuadraticRefinement.zero(2))


def test_membership_in_models():
    rng = random.Random(11)
    m = aut_model(3, 2)
    h = homotopy_model(3, 2)
    assert m.contains(m.identity()) and h.contains(h.identity())
    for _ in range(10):
        g = random_member(m.base, 0, rng)
        assert m.contains(g)
        assert not h.contains(g)  # wrong modulus
        assert h.contains(to_homotopy(m, g))


def test_dehn_twist_frozen_example():
    g = dehn_twist(aut_model(3, 2), 1, "u", 2)
    assert g.x.coords == (0, 2, 0, 0)
    assert g.a == SymplecticMatrix.identity(2)


def test_dehn_twist_coordinate_rules():
    model = aut_model(7, 3)
    assert dehn_twist(model, 2, "u", 4).x.coords == (0, 0, 0, 4, 0, 0)
    assert dehn_twist(model, 2, "v", 4).x.coords == (0, 0, 4, 0, 0, 0)
    assert dehn_twist(model, 3, "v", -6).x.coords == (0, 0, 0, 0, -6, 0)


def test_dehn_twist_membership_and_commutation():
    model = aut_model(3, 2)
    g = dehn_twist(model, 1, "u", 2)
    h = dehn_twist(model, 2, "v", -4)
    assert model.contains(g) and model.contains(h)
    assert g * h == h * g  # twists on the identity matrix commute
    assert (g * g).x.coords == (0, 4, 0, 0)


def test_dehn_twist_in_homotopy_model_wraps():
    model = homotopy_model(3, 1)
    g = dehn_twist(model, 1, "u", 26)
    assert g.modulus == 24 and g.x.coords == (0, 2)


def test_dehn_twist_guards():
    model = aut_model(3, 2)
    with pytest.raises(ValueError):
        dehn_twist(model, 1, "w", 2)
    with pytest.raises(ValueError):
        dehn_twist(model, 3, "u", 2)
    with pytest.raises(ValueError):
        dehn_twist(model, 0, "u", 2)
    with pytest.raises(ValueError):
        dehn_twist(model, 1, "u", 3)
    # a non-integral pair index is refused: 1.5 used to give the "v" twist at pair 2
    for bad in (1.5, 0.5, float("nan"), float("inf"), "1", None, 3, 0):
        with pytest.raises(ValueError, match=rf"^pair index must lie in 1\.\.2, got {re.escape(repr(bad))}$"):
            dehn_twist(model, bad, "u", 2)
    # so is a non-integral coefficient, before its parity is tested (these used to raise TypeError)
    for bad in ("2", None, 2.5, float("nan")):
        message = rf"^twist coefficient must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            dehn_twist(model, 1, "u", bad)
    with pytest.raises(ValueError, match=r"^twist coefficient must be even$"):
        dehn_twist(model, 1, "u", 3.0)
    assert dehn_twist(model, 2.0, "u", 2) == dehn_twist(model, 2, "u", 2) == dehn_twist(model, 2, "u", 2.0)


def test_to_homotopy_reduction():
    m = aut_model(3, 1)
    g = dehn_twist(m, 1, "u", 26)
    h = to_homotopy(m, g)
    assert h.modulus == 24 and h.x.coords == (0, 2)


def test_to_homotopy_default_target_keeps_the_base():
    smooth = MCGModel(ManifoldParams(3, 1), 0, QuadraticRefinement((1, 1)))
    target = MCGModel(smooth.params, 24, smooth.base)
    rng = random.Random(5)
    for _ in range(5):
        assert target.contains(to_homotopy(smooth, random_member(smooth.base, 0, rng)))


def test_to_homotopy_kernel_is_double_coefficient_lattice():
    # a twist dies in the homotopy model exactly when 2c divides its coefficient
    m = aut_model(3, 1)
    for alpha in range(-48, 49, 2):
        g = dehn_twist(m, 1, "u", alpha)
        assert to_homotopy(m, g).x.is_zero() == (alpha % 24 == 0)


def test_to_homotopy_guards():
    m = aut_model(3, 1)
    h = homotopy_model(3, 1)
    with pytest.raises(ValueError):
        to_homotopy(h, h.identity())
    with pytest.raises(ValueError):
        to_homotopy(m, jacobi_identity(1, 4))  # wrong modulus, not a member


def test_pontryagin_parts_and_coefficients():
    assert pontryagin_parts(1) == (2, 2, 1)
    assert pontryagin_parts(2) == (1, 2, 6)
    assert pontryagin_parts(3) == (2, 1, 120)
    assert pontryagin_parts(4) == (1, 1, 5040)
    assert [pontryagin_coefficient(j) for j in (1, 2, 3, 4)] == [4, 12, 240, 5040]
    # general shape: a alternates 2, 1; c is 2 only for j <= 2
    for j in range(5, 9):
        a, c, f = pontryagin_parts(j)
        assert a == (2 if j % 2 else 1) and c == 1 and f == math.factorial(2 * j - 1)
    # a non-integral index is refused like j < 1, not truncated (2.5 used to give the j = 2 parts)
    for bad in (0, -1, 2.5, 2.9, float("inf"), float("-inf"), float("nan"), "2", None):
        message = rf"^index j must be a positive integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            pontryagin_parts(bad)
        with pytest.raises(ValueError, match=message):
            pontryagin_coefficient(bad)
    assert pontryagin_parts(2.0) == pontryagin_parts(2) and pontryagin_coefficient(3.0) == 240


@pytest.mark.parametrize("p", [3, 7])
def test_splitting_theorem_small_ranks(p):
    for r in (1, 2, 3, 4, 5):
        theorem = splitting_theorem_verdict(p, r)
        assert theorem.params.p == p and theorem.params.r == r
        assert theorem.verdict.splits == (r == 1) and theorem.verdict.rank == r
        assert theorem.params.homotopy_modulus == 2 * ManifoldParams(p, r).c


@pytest.mark.parametrize("p,m", [(3, 24), (7, 240)])
def test_splitting_theorem_searches_once(monkeypatch, p, m):
    calls = []

    def counting_splits(*args, **kwargs):
        calls.append(args)
        return splits(*args, **kwargs)

    monkeypatch.setattr(symsplit.mcg, "splits", counting_splits)
    for r in (1, 2):
        calls.clear()
        theorem = splitting_theorem_verdict(p, r)
        assert calls == [(r,)]
        assert theorem.params.homotopy_modulus == m
        assert theorem.verdict == splits(r)


def test_non_integral_rank_is_refused():
    # a fractional rank used to be truncated: orbit_decomposition(2.5) reported rank 2,
    # splits(1.9) split at rank 1, and homotopy_model(3, 1.5) failed on the base's rank
    for call in (lambda: orbit_decomposition(2.5), lambda: splits(1.9),
                 lambda: ManifoldParams(3, 1.5), lambda: homotopy_model(3, 1.5)):
        with pytest.raises(ValueError, match=r"^rank must (be a positive integer|lie in 1\.\.\d+), got \d\.\d$"):
            call()
    # a rank int() cannot convert gets the rank message too, not OverflowError or TypeError
    for bad in (float("inf"), float("nan"), None):
        for call in (lambda: orbit_decomposition(bad), lambda: splits(bad),
                     lambda: ManifoldParams(3, bad), lambda: splitting_theorem_verdict(3, bad)):
            with pytest.raises(ValueError, match=rf"^rank must (be a positive integer|lie in 1\.\.\d+), got {bad}$"):
                call()
    assert type(ManifoldParams(3, 2).r) is int and type(ManifoldParams(3, 2.0).r) is int
    assert ManifoldParams(3, 2.0) == ManifoldParams(3, 2)
    assert type(splitting_theorem_verdict(3, 2.0).params.r) is int
    # the middle dimension is stored as an int too, and one that is not 3 or 7 gets one message
    assert type(ManifoldParams(3.0, 1).p) is int and ManifoldParams(7.0, 1) == ManifoldParams(7, 1)
    for bad in (3.5, "3", None, float("nan"), [3], 5):
        with pytest.raises(ValueError, match=r"^supported middle dimensions are 3 and 7$"):
            ManifoldParams(bad, 1)


def test_homotopy_modulus_has_one_validator():
    # MCGModel reads its modulus through the integer guard, then asks for a multiple of 4
    params, base = ManifoldParams(7, 1), QuadraticRefinement.zero(1)
    for bad in (-4, "3", "8", 2.5, 8.5, float("nan"), float("inf"), None):
        with pytest.raises(ValueError, match=rf"^modulus must be a non-negative integer, got {re.escape(repr(bad))}$"):
            MCGModel(params, bad, base)
    for bad in (2, 6, 26):
        with pytest.raises(ValueError, match=r"^modulus must be 0 or a positive integer divisible by 4$"):
            MCGModel(params, bad, base)
    # an integral modulus of another type is stored as an int
    model = MCGModel(params, 8.0, base)
    assert type(model.modulus) is int and model.modulus == 8


def test_model_accepts_exactly_the_multiples_of_4():
    params, base = ManifoldParams(7, 1), QuadraticRefinement.zero(1)
    for m in range(65):
        if m % 4:
            with pytest.raises(ValueError, match="divisible by 4"):
                MCGModel(params, m, base)
        else:
            assert MCGModel(params, m, base).modulus == m


def test_twists_generate_the_fiber():
    # products of the 2r twist generators with even coefficients reach every
    # even covector over the identity matrix
    model = aut_model(3, 2)
    target = Covector((2, -4, 6, 0))
    word = (dehn_twist(model, 1, "v", 2) * dehn_twist(model, 1, "u", -4)
            * dehn_twist(model, 2, "v", 6))
    assert word.x == target and word.a == SymplecticMatrix.identity(2)
    assert gamma_psi_member(word, model.base)
