"""One-cocycles on the symplectic group with covector values.

A cocycle satisfies s(AB) = s(A).B + s(B).  Two constructive families exist
here: coboundaries s(x)(A) = x.A - x, and the principal cocycle of a quadratic
refinement s(psi)(A) = psi.A - psi.  Tabulated cocycles are finite lookup
tables carrying no law guarantee; they exist solely as negative controls for
the checking machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadratic import QuadraticRefinement, _bits_of, _principal_state
from .symplectic import Covector, SymplecticMatrix, neg_identity


class Cocycle:
    """A rule assigning a covector of fixed modulus to each symplectic matrix."""

    def value(self, a: SymplecticMatrix) -> Covector:
        raise NotImplementedError

    @property
    def rank(self) -> int:
        raise NotImplementedError

    @property
    def modulus(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class CoboundaryCocycle(Cocycle):
    """s(x)(A) = x.A - x."""

    x: Covector

    @property
    def rank(self) -> int:
        return self.x.rank

    @property
    def modulus(self) -> int:
        return self.x.modulus

    def value(self, a: SymplecticMatrix) -> Covector:
        return coboundary_at(self.x, a)


@dataclass(frozen=True)
class PrincipalCocycle(Cocycle):
    """s(psi)(A) = psi.A - psi, valued in mod-2 covectors."""

    psi: QuadraticRefinement

    @property
    def rank(self) -> int:
        return self.psi.rank

    @property
    def modulus(self) -> int:
        return 2

    def value(self, a: SymplecticMatrix) -> Covector:
        return principal_at(self.psi, a)


@dataclass(frozen=True)
class TabulatedCocycle(Cocycle):
    """Finite evaluation table; no cocycle law is promised or checked."""

    entries: tuple[tuple[SymplecticMatrix, Covector], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a tabulated cocycle needs at least one entry")

    @property
    def rank(self) -> int:
        return self.entries[0][0].rank

    @property
    def modulus(self) -> int:
        return self.entries[0][1].modulus

    def value(self, a: SymplecticMatrix) -> Covector:
        for key, val in self.entries:
            if key == a:
                return val
        raise ValueError("matrix not tabulated")


def coboundary_at(x: Covector, a: SymplecticMatrix) -> Covector:
    if x.rank != a.rank:
        raise ValueError("rank mismatch")
    return x.act(a) - x


def principal_at(psi: QuadraticRefinement, a: SymplecticMatrix) -> Covector:
    """psi.A - psi as a mod-2 covector, read off the packed kernel of `qact`.

    Raises as `qact` does; the returned covector is the only object built.
    """
    return Covector._trusted(_bits_of(_principal_state(psi, a), 2 * psi.rank), 2)


def check_cocycle_law(s: Cocycle, a: SymplecticMatrix, b: SymplecticMatrix) -> bool:
    """Exact test of s(AB) = s(A).B + s(B) on one pair."""
    return s.value(a * b) == s.value(a).act(b) + s.value(b)


def minus_id_constraint(s: Cocycle, a: SymplecticMatrix) -> bool:
    """Exact test of 2 s(A) = -(s(-Id).A - s(-Id)), a consequence of the law."""
    if s.modulus % 2:
        raise ValueError("modulus must be 0 or even")
    sa = s.value(a)
    sneg = s.value(neg_identity(s.rank))
    return sa + sa == -(sneg.act(a) - sneg)

