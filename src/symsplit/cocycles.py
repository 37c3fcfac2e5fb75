"""One-cocycles on the symplectic group with covector values.

A cocycle is a function s from symplectic matrices to covectors satisfying
s(AB) = s(A).B + s(B).  Two constructive families exist here, as plain
functions of their datum and the matrix: coboundaries
`coboundary_at(x, A)` = x.A - x, and the principal cocycle of a quadratic
refinement `principal_at(psi, A)` = psi.A - psi.  The law checks take any
function of one matrix, e.g. `functools.partial(principal_at, psi)`, or a
dict's `__getitem__` as a finite table that promises no law.
"""

from __future__ import annotations

from collections.abc import Callable

from .quadratic import QuadraticRefinement, qact, qdifference
from .symplectic import Covector, SymplecticMatrix, neg_identity

Cocycle = Callable[[SymplecticMatrix], Covector]


def coboundary_at(x: Covector, a: SymplecticMatrix) -> Covector:
    if x.rank != a.rank:
        raise ValueError("rank mismatch")
    return x.act(a) - x


def principal_at(psi: QuadraticRefinement, a: SymplecticMatrix) -> Covector:
    """psi.A - psi as a mod-2 covector: the XOR of the two packed states.

    Raises as `qact` does.
    """
    return qdifference(qact(psi, a), psi)


def check_cocycle_law(s: Cocycle, a: SymplecticMatrix, b: SymplecticMatrix) -> bool:
    """Exact test of s(AB) = s(A).B + s(B) on one pair."""
    return s(a * b) == s(a).act(b) + s(b)


def minus_id_constraint(s: Cocycle, a: SymplecticMatrix) -> bool:
    """Exact test of 2 s(A) = -(s(-Id).A - s(-Id)), a consequence of the law."""
    sa = s(a)
    if sa.modulus % 2:
        raise ValueError("modulus must be 0 or even")
    sneg = s(neg_identity(a.rank))
    return sa + sa == -(sneg.act(a) - sneg)
