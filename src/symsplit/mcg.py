"""Mapping class group models for connected sums of sphere products.

Two exact models share the same pair arithmetic: the smooth flavor keeps
integer covectors (modulus 0), while the homotopy flavor reduces them modulo
`ManifoldParams.homotopy_modulus`.  Twist generators populate the fiber.
"""

from __future__ import annotations

import math

from .jacobi import JacobiElement, gamma_psi_member, jacobi_identity, reduce_modulus, splits
from .quadratic import QuadraticRefinement
from .symplectic import (Covector, SymplecticMatrix, _Value, _check_int, _integral, _same_rank,
                         _setattr)

COEFFICIENT_ORDER = {3: 12, 7: 120}

SMOOTH = "smooth"
HOMOTOPY = "homotopy"


class ManifoldParams(_Value):
    """Middle dimension p (3 or 7) and the number r of product-of-spheres summands."""

    __slots__ = ("p", "r")

    def __init__(self, p: int, r: int) -> None:
        n = _integral(p)
        if n not in COEFFICIENT_ORDER:
            raise ValueError("supported middle dimensions are 3 and 7")
        _setattr(self, "p", n)
        _setattr(self, "r", _check_int(r, "rank", 1))

    @property
    def c(self) -> int:
        return COEFFICIENT_ORDER[self.p]

    @property
    def homotopy_modulus(self) -> int:
        """Twice the order c of the relevant stable homotopy group (12 for p = 3, 120 for p = 7)."""
        return 2 * self.c


class MCGModel(_Value):
    """The smooth model over integer covectors (modulus 0) or a homotopy model (modulus > 0)."""

    __slots__ = ("params", "modulus", "base")

    def __init__(self, params: ManifoldParams, modulus: int, base: QuadraticRefinement) -> None:
        modulus = _check_int(modulus, "modulus", 0)
        if modulus % 4:
            raise ValueError("modulus must be 0 or a positive integer divisible by 4")
        _same_rank(base.rank, params.r)
        _setattr(self, "params", params)
        _setattr(self, "modulus", modulus)
        _setattr(self, "base", base)

    @property
    def flavor(self) -> str:
        return HOMOTOPY if self.modulus else SMOOTH

    @property
    def rank(self) -> int:
        return self.params.r

    def identity(self) -> JacobiElement:
        return jacobi_identity(self.rank, self.modulus)

    def contains(self, g: JacobiElement) -> bool:
        return (g.rank == self.rank and g.modulus == self.modulus
                and gamma_psi_member(g, self.base))


def aut_model(p: int, r: int) -> MCGModel:
    """Smooth-flavor model: integer covectors over the all-zero base refinement."""
    return MCGModel(ManifoldParams(p, r), 0, QuadraticRefinement.zero(r))


def homotopy_model(p: int, r: int) -> MCGModel:
    """Homotopy-flavor model: covectors modulo the homotopy modulus, over the all-zero base."""
    params = ManifoldParams(p, r)
    return MCGModel(params, params.homotopy_modulus, QuadraticRefinement.zero(r))


def dehn_twist(model: MCGModel, i: int, kind: str, alpha: int) -> JacobiElement:
    """Twist generator (x, Id): kind "u" sets x(v_i) = alpha, kind "v" sets x(u_i) = alpha.

    The coefficient alpha must be even; that parity is what makes the twist a
    member of the model.
    """
    r = model.rank
    if kind not in ("u", "v"):
        raise ValueError('twist kind must be "u" or "v"')
    i = _check_int(i, "pair index", 1, r)
    alpha = _check_int(alpha, "twist coefficient")
    if alpha % 2:
        raise ValueError("twist coefficient must be even")
    pos = 2 * (i - 1) + (1 if kind == "u" else 0)
    coords = tuple(alpha if j == pos else 0 for j in range(2 * r))
    return JacobiElement(Covector(coords, model.modulus), SymplecticMatrix.identity(r))


def to_homotopy(model: MCGModel, g: JacobiElement) -> JacobiElement:
    """Reduce a smooth-model member into the homotopy model over the same base refinement."""
    if model.flavor != SMOOTH:
        raise ValueError("source model must have the smooth flavor")
    if not model.contains(g):
        raise ValueError("element is not a member of the smooth model")
    return reduce_modulus(g, model.params.homotopy_modulus)


def pontryagin_parts(j: int) -> tuple[int, int, int]:
    """The three factors of the twist coefficient: a_j, c_j, (2j-1)!."""
    j = _check_int(j, "index j", 1)
    a = 2 if j % 2 else 1  # (3 - (-1)^j) / 2
    c = 2 if j <= 2 else 1
    return a, c, math.factorial(2 * j - 1)


def pontryagin_coefficient(j: int) -> int:
    """Coefficient a_j c_j (2j-1)! tying the top tangential class to the twist datum."""
    a, c, f = pontryagin_parts(j)
    return a * c * f


class SplittingTheoremVerdict(_Value):
    """The manifold's parameters and the one splitting verdict of its smooth and homotopy models."""

    __slots__ = ("params", "verdict")


def splitting_theorem_verdict(p: int, r: int) -> SplittingTheoremVerdict:
    """Decide splitting for the smooth and homotopy models of one manifold.

    At modulus 0 and at a multiple of 4 splitting is a question about mod-2
    data alone (`splits`), so one verdict answers for both models.  The rank
    is checked first, by `splits`, so every refused rank gets the splitting
    limit's message.
    """
    verdict = splits(r)
    return SplittingTheoremVerdict(ManifoldParams(p, verdict.rank), verdict)
