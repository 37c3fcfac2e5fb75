"""The Jacobi group of covector-matrix pairs and its refinement subgroups.

Elements are pairs (x, A) with product (x, A)(y, B) = (x.B + y, AB).  For a
refinement psi, the pairs whose mod-2 covector part equals the principal
cocycle value of their matrix form a subgroup; it is an extension of the
symplectic group by the lattice of even covectors.  `splits` decides whether
that extension admits a homomorphic section.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .cocycles import coboundary_at, principal_at
from .limits import SPLIT_RANK_LIMIT
from .quadratic import QuadraticRefinement, _state_of, is_group_fixed, qact, qdifference
from .symplectic import (Covector, SymplecticMatrix, _Value, _check_int, _same_rank, _setattr,
                         random_symplectic_word)


class JacobiElement(_Value):
    """Pair (x, A): a covector together with a symplectic matrix of equal rank."""

    __slots__ = ("x", "a")

    def __init__(self, x: Covector, a: SymplecticMatrix) -> None:
        _same_rank(len(x.coords), len(a.rows))
        _setattr(self, "x", x)
        _setattr(self, "a", a)

    @property
    def rank(self) -> int:
        return self.a.rank

    @property
    def modulus(self) -> int:
        return self.x.modulus

    def __mul__(self, other: "JacobiElement") -> "JacobiElement":
        return jmul(self, other)

    def inverse(self) -> "JacobiElement":
        return jinv(self)


def jacobi_identity(r: int, modulus: int = 0) -> JacobiElement:
    return JacobiElement(Covector.zero(r, modulus), SymplecticMatrix.identity(r))


def jmul(g: JacobiElement, h: JacobiElement) -> JacobiElement:
    """(x, A)(y, B) = (x.B + y, AB); `Covector.act` and `+` refuse operands of another rank or modulus."""
    return JacobiElement(g.x.act(h.a) + h.x, g.a * h.a)


def jinv(g: JacobiElement) -> JacobiElement:
    ai = g.a.inverse()
    return JacobiElement(-(g.x.act(ai)), ai)


def gamma_psi_member(g: JacobiElement, psi: QuadraticRefinement) -> bool:
    """Whether the mod-2 part of x equals the principal cocycle value psi.A - psi of A.

    Both sides are compared as packed 2r-bit states: the parities of x against
    the state of psi.A XOR psi's.  The only object built is psi.A.
    """
    if g.modulus % 2:
        raise ValueError("membership needs modulus 0 or even")
    return _state_of(g.x.coords) == qact(psi, g.a).state ^ psi.state


def include_fiber(x: Covector) -> JacobiElement:
    """Embed an even covector as the pair (x, Id), with Id of x's rank."""
    if any(c % 2 for c in x.coords):
        raise ValueError("fiber covectors must have even coordinates")
    return JacobiElement(x, SymplecticMatrix.identity(x.rank))


def reduce_modulus(g: JacobiElement, m: int) -> JacobiElement:
    return JacobiElement(g.x.reduce_to(m), g.a)


def reframe(g: JacobiElement, y: Covector) -> JacobiElement:
    """Conjugation by (y, Id): (x, A) -> (y.A + x - y, A).

    Carries the refinement subgroup at psi onto the one at psi + ybar.
    """
    return JacobiElement(coboundary_at(y, g.a) + g.x, g.a)


def default_base_refinement(r: int) -> QuadraticRefinement:
    """All-zero base, except at rank 1 where the Arf-1 form makes the section zero."""
    r = _check_int(r, "rank", 1)
    return QuadraticRefinement.arf_one(1) if r == 1 else QuadraticRefinement.zero(r)


class SplitVerdict(_Value):
    """Outcome of the splitting decision at one rank, for modulus 0 and every multiple of 4.

    When `splits` is true, `witness` is the one mod-2 translation making the
    base refinement group-fixed, and `section` gives the section it defines.
    `candidates_checked` is the witness's 1-based position in the
    lexicographic order of all 4^r mod-2 covectors, or 4^r when there is no
    witness: the count a lexicographic walk over the candidates would check.
    """

    __slots__ = ("rank", "base", "splits", "witness", "fixed_refinement", "candidates_checked")

    def section(self) -> Callable[[SymplecticMatrix], JacobiElement]:
        """Integer section A -> (x.A - x, A), homomorphic, where x is the witness's 0/1 lift.

        At a modulus m divisible by 4 the section is `reduce_modulus` of its values.
        """
        if self.witness is None:
            raise ValueError("extension does not split; no section exists")
        x = Covector(self.witness.coords)
        def sigma(a: SymplecticMatrix) -> JacobiElement:
            return JacobiElement(coboundary_at(x, a), a)
        return sigma


def splits(r: int, *, psi: QuadraticRefinement | None = None) -> SplitVerdict:
    """Decide whether the extension splits; exact, in O(r) steps.

    The answer is the same for integer covectors (modulus 0) and for every
    modulus divisible by 4: in both, splitting is equivalent to the base
    refinement having a group-fixed translate, a question about mod-2 data
    alone.  A fixed refinement is 1 at every u_i and v_i, so the one
    candidate translate is the all-ones refinement.  It is fixed at rank 1
    and at no higher rank (at r >= 2 its value at u_1 + u_2 is 1 + 1 + 0 = 0),
    and the witness is its difference from the base.  Ranks above
    SPLIT_RANK_LIMIT are refused.
    """
    r = _check_int(r, "rank", 1, SPLIT_RANK_LIMIT)
    base = default_base_refinement(r) if psi is None else psi
    _same_rank(base.rank, r)
    fixed = QuadraticRefinement._trusted(2 * r, (1 << 2 * r) - 1)
    if not is_group_fixed(fixed):
        return SplitVerdict(r, base, False, None, None, 4 ** r)
    position = (fixed.state ^ base.state) + 1
    return SplitVerdict(r, base, True, qdifference(fixed, base), fixed, position)


def random_member(psi: QuadraticRefinement, modulus: int, rng: random.Random,
                  word_length: int = 8) -> JacobiElement:
    """Seeded sample from the refinement subgroup (not uniform over the group).

    An odd modulus is refused before any draw, as `gamma_psi_member` refuses it.
    """
    modulus = _check_int(modulus, "modulus", 0)
    if modulus % 2:
        raise ValueError("membership needs modulus 0 or even")
    length = rng.randint(0, _check_int(word_length, "word length", 0))
    a = random_symplectic_word(psi.rank, length, rng)
    xbar = principal_at(psi, a)
    noise = rng.choices(range(-9, 10) if modulus == 0 else range(modulus), k=2 * psi.rank)
    coords = tuple([b + 2 * t for b, t in zip(xbar.coords, noise)])
    return JacobiElement(Covector._trusted(coords, modulus), a)
