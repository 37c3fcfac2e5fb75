"""The Jacobi group of covector-matrix pairs and its refinement subgroups.

Elements are pairs (x, A) with product (x, A)(y, B) = (x.B + y, AB).  For a
refinement psi, the pairs whose mod-2 covector part equals the principal
cocycle value of their matrix form a subgroup; it is an extension of the
symplectic group by the lattice of even covectors.  `splits` decides whether
that extension admits a homomorphic section, which it does iff some translate
psi + xbar of the base refinement is group-fixed.  A fixed refinement is 1 at
every u_i and v_i, so the one candidate is xbar = psi + 1...1, whose translate
is the all-ones refinement; `splits` decides it with `quadratic.is_group_fixed`
in O(r) steps.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .cocycles import principal_at
from .limits import SPLIT_RANK_LIMIT
from .quadratic import QuadraticRefinement, _state_of, is_group_fixed, qact, qdifference
from .symplectic import (Covector, SymplecticMatrix, _Value, _check_int, _integral,
                         _setattr, random_symplectic_word)


class JacobiElement(_Value):
    """Pair (x, A): a covector together with a symplectic matrix of equal rank."""

    __slots__ = ("x", "a")

    def __init__(self, x: Covector, a: SymplecticMatrix) -> None:
        if len(x.coords) != len(a.rows):
            raise ValueError("covector and matrix ranks differ")
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
    if g.rank != h.rank or g.modulus != h.modulus:
        raise ValueError("operands must share rank and modulus")
    return JacobiElement(g.x.act(h.a) + h.x, g.a * h.a)


def jinv(g: JacobiElement) -> JacobiElement:
    ai = g.a.inverse()
    return JacobiElement(-(g.x.act(ai)), ai)


def gamma_psi_member(g: JacobiElement, psi: QuadraticRefinement) -> bool:
    """Whether the mod-2 part of x equals the principal cocycle value psi.A - psi of A.

    Both sides are compared as packed 2r-bit states: the parities of x against
    the state of psi.A XOR psi's.  The only object built is psi.A.
    """
    if g.rank != psi.rank:
        raise ValueError("rank mismatch")
    if g.modulus % 2:
        raise ValueError("membership needs modulus 0 or even")
    return _state_of(g.x.coords) == qact(psi, g.a).state ^ psi.state


def include_fiber(x: Covector, r: int) -> JacobiElement:
    """Embed an even covector as the pair (x, Id)."""
    if x.rank != _check_int(r, "rank", 1):
        raise ValueError("rank mismatch")
    if any(c % 2 for c in x.coords):
        raise ValueError("fiber covectors must have even coordinates")
    return JacobiElement(x, SymplecticMatrix.identity(r))


def reduce_modulus(g: JacobiElement, m: int) -> JacobiElement:
    return JacobiElement(g.x.reduce_to(m), g.a)


def reframe(g: JacobiElement, y: Covector) -> JacobiElement:
    """Conjugation by (y, Id): (x, A) -> (y.A + x - y, A).

    Carries the refinement subgroup at psi onto the one at psi + ybar.
    """
    if y.rank != g.rank or y.modulus != g.modulus:
        raise ValueError("conjugating covector must share rank and modulus")
    return JacobiElement(y.act(g.a) + g.x - y, g.a)


def default_base_refinement(r: int) -> QuadraticRefinement:
    """All-zero base, except at rank 1 where the Arf-1 form makes the section zero."""
    r = _check_int(r, "rank", 1)
    return QuadraticRefinement.arf_one(1) if r == 1 else QuadraticRefinement.zero(r)


class SplitVerdict(_Value):
    """Outcome of the splitting decision at one rank and modulus.

    When `splits` is true, `witness` is the one mod-2 translation making the
    base refinement group-fixed, and the section is A -> (x.A - x, A) for x
    any lift of the witness.  `candidates_checked` is the witness's 1-based
    position in the lexicographic order of all 4^r mod-2 covectors, or 4^r
    when there is no witness: the count a lexicographic walk over the
    candidates would check.
    """

    __slots__ = ("rank", "modulus", "base", "splits", "witness", "fixed_refinement",
                 "candidates_checked")

    def section(self) -> Callable[[SymplecticMatrix], JacobiElement]:
        """Homomorphic section A -> (x.A - x, A), where x is the witness's 0/1 lift."""
        if not self.splits or self.witness is None:
            raise ValueError("extension does not split; no section exists")
        x = Covector(self.witness.coords, self.modulus)
        def sigma(a: SymplecticMatrix) -> JacobiElement:
            return JacobiElement(x.act(a) - x, a)
        return sigma


def _check_split_modulus(modulus: int) -> int:
    """Return the modulus as an int; raise ValueError unless it is 0 or a positive multiple of 4."""
    m = _integral(modulus)
    if m is None or m < 0 or m % 4:
        raise ValueError("modulus must be 0 or a positive integer divisible by 4")
    return m


def splits(r: int, modulus: int, psi: QuadraticRefinement | None = None) -> SplitVerdict:
    """Decide whether the extension splits; exact, in O(r) steps.

    Requires modulus 0 (integer covectors) or a multiple of 4, the regime in
    which splitting is equivalent to the base refinement having a group-fixed
    translate.  The one candidate translate is the all-ones refinement; it is
    fixed at rank 1 and at no higher rank, and the witness is its difference
    from the base.  Ranks above SPLIT_RANK_LIMIT are refused.
    """
    r = _check_int(r, "rank", 1, SPLIT_RANK_LIMIT)
    modulus = _check_split_modulus(modulus)
    base = default_base_refinement(r) if psi is None else psi
    if base.rank != r:
        raise ValueError("base refinement rank mismatch")
    fixed = QuadraticRefinement._trusted(2 * r, (1 << 2 * r) - 1)
    if not is_group_fixed(fixed):
        return SplitVerdict(r, modulus, base, False, None, None, 4 ** r)
    position = (fixed.state ^ base.state) + 1
    return SplitVerdict(r, modulus, base, True, qdifference(fixed, base), fixed, position)


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
    n = 2 * psi.rank
    if modulus == 0:
        noise = [rng.randint(-9, 9) for _ in range(n)]
    else:
        noise = [rng.randrange(modulus) for _ in range(n)]
    coords = tuple([b + 2 * t for b, t in zip(xbar.coords, noise)])
    return JacobiElement(Covector(coords, modulus), a)
