"""Mapping class group models for connected sums of sphere products.

Two exact models share the same pair arithmetic: the smooth flavor keeps
integer covectors (modulus 0), while the homotopy flavor reduces them modulo
twice the order of the relevant stable homotopy group (that order is 12 in
dimension 3 and 120 in dimension 7).  Twist generators populate the fiber,
and the splitting question is decided for both flavors by one solve.
"""

from __future__ import annotations

import math

from .jacobi import (JacobiElement, SplitVerdict, _check_split_modulus, gamma_psi_member,
                     jacobi_identity, reduce_modulus, splits)
from .quadratic import QuadraticRefinement
from .symplectic import (Covector, SymplecticMatrix, _Value, _check_index, _check_rank, _integral,
                         _setattr)

COEFFICIENT_ORDER = {3: 12, 7: 120}

SMOOTH = "smooth"
HOMOTOPY = "homotopy"


class ManifoldParams(_Value):
    """Middle dimension p (3 or 7) and the number r of product-of-spheres summands."""

    __slots__ = ("p", "r")

    def __init__(self, p: int, r: int) -> None:
        if p not in COEFFICIENT_ORDER:
            raise ValueError("supported middle dimensions are 3 and 7")
        _setattr(self, "p", p)
        _setattr(self, "r", _check_rank(r))

    @property
    def c(self) -> int:
        return COEFFICIENT_ORDER[self.p]


def _homotopy_modulus(params: ManifoldParams, modulus: int | None = None) -> int:
    """The homotopy modulus: twice the coefficient order unless given, checked and returned.

    It must be a positive multiple of 4.  Negative moduli and moduli not
    divisible by 4 get the splitting decision's own message; 0 is refused
    because it is the smooth model's modulus.
    """
    m = 2 * params.c if modulus is None else modulus
    _check_split_modulus(m)
    if m == 0:
        raise ValueError("the homotopy modulus must be positive; 0 is the smooth model's modulus")
    return m


class MCGModel(_Value):
    """The smooth model over integer covectors (modulus 0) or a homotopy model (modulus > 0)."""

    __slots__ = ("params", "modulus", "base")

    def __init__(self, params: ManifoldParams, modulus: int, base: QuadraticRefinement) -> None:
        _check_split_modulus(modulus)
        if base.rank != params.r:
            raise ValueError("base refinement rank mismatch")
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


def homotopy_model(p: int, r: int, modulus: int | None = None) -> MCGModel:
    """Homotopy-flavor model; modulus defaults to twice the coefficient order."""
    params = ManifoldParams(p, r)
    return MCGModel(params, _homotopy_modulus(params, modulus), QuadraticRefinement.zero(r))


def dehn_twist(model: MCGModel, i: int, kind: str, alpha: int) -> JacobiElement:
    """Twist generator (x, Id): kind "u" sets x(v_i) = alpha, kind "v" sets x(u_i) = alpha.

    The coefficient alpha must be even; that parity is what makes the twist a
    member of the model.
    """
    r = model.rank
    if kind not in ("u", "v"):
        raise ValueError('twist kind must be "u" or "v"')
    i = _check_index(i, 1, r, "pair index")
    if alpha % 2:
        raise ValueError("twist coefficient must be even")
    pos = 2 * (i - 1) + (1 if kind == "u" else 0)
    coords = tuple(alpha if j == pos else 0 for j in range(2 * r))
    return JacobiElement(Covector(coords, model.modulus), SymplecticMatrix.identity(r))


def to_homotopy(model: MCGModel, g: JacobiElement, target: MCGModel | None = None) -> JacobiElement:
    """Reduce a smooth-model member into a homotopy model over the same base refinement.

    The target defaults to the model with modulus twice the coefficient order.
    """
    if model.flavor != SMOOTH:
        raise ValueError("source model must have the smooth flavor")
    if not model.contains(g):
        raise ValueError("element is not a member of the smooth model")
    if target is None:
        target = MCGModel(model.params, _homotopy_modulus(model.params), model.base)
    if target.flavor != HOMOTOPY or (target.params, target.base) != (model.params, model.base):
        raise ValueError("target must be a homotopy model with the same parameters and base")
    return reduce_modulus(g, target.modulus)


def pontryagin_parts(j: int) -> tuple[int, int, int]:
    """The three factors of the twist coefficient: a_j, c_j, (2j-1)!."""
    n = _integral(j)
    if n is None or n < 1:  # 2.5, nan and inf too, not truncated
        raise ValueError("the index must be a positive integer")
    j = n
    a = 2 if j % 2 else 1  # (3 - (-1)^j) / 2
    c = 2 if j <= 2 else 1
    return a, c, math.factorial(2 * j - 1)


def pontryagin_coefficient(j: int) -> int:
    """Coefficient a_j c_j (2j-1)! tying the top tangential class to the twist datum."""
    a, c, f = pontryagin_parts(j)
    return a * c * f


class SplittingTheoremVerdict(_Value):
    __slots__ = ("p", "r", "smooth", "homotopy")


def splitting_theorem_verdict(p: int, r: int,
                              homotopy_modulus: int | None = None) -> SplittingTheoremVerdict:
    """Decide splitting for the smooth and homotopy models of one manifold.

    For modulus 0 or a multiple of 4 the extension splits iff the base
    refinement has a group-fixed translate, a question about mod-2 data alone.
    So one solve decides both flavors: the homotopy verdict is the smooth one
    with the homotopy modulus in place of 0.  The homotopy modulus is checked
    as the homotopy model checks it, so it must be positive.  The rank is
    checked first, by `splits`, so every refused rank gets the splitting
    limit's message.
    """
    smooth = splits(r, 0)
    m = _homotopy_modulus(ManifoldParams(p, smooth.rank), homotopy_modulus)
    homotopy = SplitVerdict(smooth.rank, m, smooth.base, smooth.splits, smooth.witness,
                            smooth.fixed_refinement, smooth.candidates_checked)
    return SplittingTheoremVerdict(p, smooth.rank, smooth, homotopy)
