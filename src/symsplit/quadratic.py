"""Quadratic refinements of the mod-2 hyperbolic form and their orbits.

A refinement is determined by its 2r basis values: the refinement identity
psi(x + y) = psi(x) + psi(y) + phibar(x, y) forces every other value, giving
the closed evaluation formula used by qeval.  The symplectic group acts on
refinements through its mod-2 image, and a transvection acts by

    (psi . T_v)(x) = psi(x) + phibar(v, x) * (psi(v) + 1),

a direct consequence of the refinement identity.

A refinement is its packed state: a 2r-bit int whose bit 2r - 1 - i is its
value at basis vector i (`_state_of`), so numeric order of states is
lexicographic order of refinements; `basis_values` derives the 0/1 tuple.
Translation and difference are XOR, the Arf invariant is one popcount and
qeval two.  Mod-2 data comes in as integer objects and is read by its
parities: qeval takes a `Vector`, qact a `SymplecticMatrix`, and translations
are `Covector`s of modulus 2.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from operator import and_

from .limits import DECOMPOSITION_RANK_LIMIT, ENUMERATION_RANK_LIMIT, SPLIT_RANK_LIMIT
from .symplectic import (Covector, SymplecticMatrix, Vector, _Value, _as_int_tuple, _check_int,
                         _same_rank, _setattr)


class QuadraticRefinement(_Value):
    """Refinement stored as the packed state of its values on (u1, v1, ..., ur, vr).

    The public constructor takes the nbits values, which must be integers,
    and keeps their parities.
    """

    __slots__ = ("nbits", "state")
    nbits: int
    state: int

    def __init__(self, basis_values) -> None:
        values = _as_int_tuple(basis_values)
        if not values or len(values) % 2:
            raise ValueError("need a positive even number of basis values")
        _setattr(self, "nbits", len(values))
        _setattr(self, "state", _state_of(values))

    @classmethod
    def _trusted(cls, nbits: int, state: int) -> "QuadraticRefinement":
        """Wrap a state below 2^nbits, nbits positive and even; no check."""
        psi = object.__new__(cls)
        _setattr(psi, "nbits", nbits)
        _setattr(psi, "state", state)
        return psi

    def __reduce__(self):
        return self.__class__, (self.basis_values,)

    @property
    def basis_values(self) -> tuple[int, ...]:
        return _bits_of(self.state, self.nbits)

    @property
    def rank(self) -> int:
        return self.nbits // 2

    @classmethod
    def zero(cls, r: int) -> "QuadraticRefinement":
        return cls._trusted(2 * _check_int(r, "rank", 1), 0)

    @classmethod
    def arf_one(cls, r: int) -> "QuadraticRefinement":
        """Lexicographically least refinement with Arf invariant 1."""
        return cls._trusted(2 * _check_int(r, "rank", 1), 3)


def _pair_mask(nbits: int) -> int:
    """The even bits below nbits, one per pair: each pair's v_i bit, with its u_i bit just above."""
    return ((1 << nbits) - 1) // 3


def qeval(psi: QuadraticRefinement, v: Vector) -> int:
    """psi(v) = sum over pairs of a_i psi(u_i) + b_i psi(v_i) + a_i b_i, mod 2."""
    _same_rank(len(v.coords), psi.nbits)
    bits = _state_of(v.coords)
    pairs = bits & bits >> 1 & _pair_mask(psi.nbits)
    return ((psi.state & bits).bit_count() + pairs.bit_count()) & 1


def qact(psi: QuadraticRefinement, a: SymplecticMatrix) -> QuadraticRefinement:
    """Right action psi.A, i.e. the refinement v -> psi(Av); depends only on A mod 2.

    Value j is psi at column j of A, computed for all j at once from the
    row-packed parities of A (see `_qact_state`).  The one public entry point
    to the mod-2 action, which `cocycles.principal_at` calls;
    `jacobi.gamma_psi_member` reads only the state, from `_qact_state` after
    its own rank check.  Raises TypeError unless a is a SymplecticMatrix, and
    ValueError unless its rank is psi's.
    """
    if not isinstance(a, SymplecticMatrix):
        raise TypeError("expected a SymplecticMatrix")
    _same_rank(len(a.rows), psi.nbits)
    return QuadraticRefinement._trusted(psi.nbits, _qact_state(psi.state, a.rows))


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _qact_state(state: int, rows) -> int:
    """psi.A on packed states: psi's state in, the state of psi.A out.

    Coordinate j of the result is psi(c) for column c of A: the XOR of c_i
    over the coordinates i where psi is 1, XOR the pair products c_2k c_2k+1.
    Packing row R_i as a state (coordinate j is A[i][j] mod 2) makes that, for
    all j at once, the XOR of R_i over psi's 1-coordinates i, XOR R_2k & R_2k+1
    for every pair.  The n rows are packed together as one n^2-bit int: the
    parities go through `map` into bytes, are spelled as binary digits in
    reading order and read by `int`, with no Python-level loop over the
    entries.  Block b (bits b*n .. b*n + n - 1) then holds R_(n-1-b), the row
    of coordinate n - 1 - b, which is state bit b.
    """
    n = len(rows)
    packed = int(bytes(map(and_, chain.from_iterable(rows), repeat(1))).translate(_DIGITS), 2)
    mask = (1 << n) - 1
    out = 0
    for i in range(0, n, 2):
        first, second = packed >> (i * n) & mask, packed >> (i * n + n) & mask
        out ^= first & second
        if state >> i & 1:
            out ^= first
        if state >> (i + 1) & 1:
            out ^= second
    return out


def qtranslate(psi: QuadraticRefinement, xbar: Covector) -> QuadraticRefinement:
    """Torsor translation psi + xbar by a mod-2 covector."""
    if xbar.modulus != 2:
        raise ValueError("translation must be a mod-2 covector")
    _same_rank(xbar.rank, psi.rank)
    return QuadraticRefinement._trusted(psi.nbits, psi.state ^ _state_of(xbar.coords))


def qdifference(psi1: QuadraticRefinement, psi0: QuadraticRefinement) -> Covector:
    """The unique mod-2 covector with psi1 = psi0 + xbar."""
    _same_rank(psi1.nbits, psi0.nbits)
    return Covector._trusted(_bits_of(psi1.state ^ psi0.state, psi1.nbits), 2)


def arf(psi: QuadraticRefinement) -> int:
    """Arf invariant: sum over pairs of psi(u_i) psi(v_i), mod 2."""
    s = psi.state
    return (s & s >> 1 & _pair_mask(psi.nbits)).bit_count() & 1


def expected_orbit_sizes(r: int) -> tuple[int, int]:
    """Closed-form orbit sizes (Arf 0, Arf 1)."""
    r = _check_int(r, "rank", 1)
    return (2 ** (2 * r - 1) + 2 ** (r - 1), 2 ** (2 * r - 1) - 2 ** (r - 1))


def enumerate_refinements(r: int) -> list[QuadraticRefinement]:
    """All 2^(2r) refinements in lexicographic basis-value order."""
    r = _check_int(r, "rank", 1, ENUMERATION_RANK_LIMIT)
    return [QuadraticRefinement._trusted(2 * r, s) for s in range(1 << 2 * r)]


def _state_of(bits) -> int:
    """Pack 0/1 values (or their parities) into an int, coordinate i of n at bit n - 1 - i."""
    state = 0
    for b in bits:
        state = state << 1 | (b & 1)
    return state


def _bits_of(state: int, nbits: int) -> tuple[int, ...]:
    """The nbits-tuple whose `_state_of` is state."""
    # from a list, so the tuple is allocated at its final size: one built from a
    # generator is resized, and CPython then keeps it on the free list of the
    # new size, which grows with every call until a full garbage collection
    return tuple([state >> i & 1 for i in range(nbits - 1, -1, -1)])


@lru_cache(maxsize=SPLIT_RANK_LIMIT)  # every rank split accepts; an entry is 3r - 1 ints
def _generators(nbits: int) -> tuple[int, ...]:
    """The directions v of the transvections at u_i + u_{i+1}, v_i and u_i, in closure order.

    These 3r - 1 transvections lift to integral ones that generate
    Sp(2r, Z), so their mod-2 images generate Sp(2r, F2): closure under the
    group, or fixedness by it, is closure or fixedness under them alone.
    u_i and v_i are the upper and lower bit of the aligned pair of bits
    {nbits - 2i, nbits - 2i + 1} (i from 1).  The order is the pair-mixing
    u_i + u_{i+1} from i = r - 1 down to 1, the masks 10 << k for k = 0, 2,
    ..., nbits - 4, then v_r, u_r, ..., v_1, u_1, the single bits 0 .. nbits - 1.
    No direction holds both bits of a pair, so psi(v) is popcount(state & v)
    mod 2, with no pair term.
    """
    return (*(10 << k for k in range(0, nbits - 3, 2)), *(1 << k for k in range(nbits)))


@lru_cache(maxsize=DECOMPOSITION_RANK_LIMIT)  # every rank orbit_decomposition accepts: 6.7 MB at r = 10
def _closure_steps(nbits: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Per generator, in `_generators` order, the bitset P_v of states with psi(v) = 0 and its moves.

    Over the 2^nbits states a bitset has bit s set when state s is in it.  C_k,
    the states with bit k clear, repeats 2^k set and 2^k clear bits; B_k is its
    complement.  P_v is the complement of the XOR of B_k over the set bits k of
    v.  When psi(v) = 0 the transvection flips bit k ^ 1 of the state, where
    phibar(v, e_(k^1)) = 1, for each set bit k of v: one move (2^(k^1), C_(k^1))
    each, which swaps each state in C_(k^1) with its partner 2^(k^1) above it.
    Cached per rank: at r = 10 the 3r - 1 masks of 4^r bits and the C_k hold
    about 6.7 MB.

    The mixing transvections commute with one another, as do any two at
    different pairs, so one pass over the mixing steps closes a set under the
    group they generate, and one pass over the single steps applies v_i then
    u_i at every pair at once: an `orbit_decomposition` takes 15r - 9
    applications at r >= 3.  Inside a block the order of the pairs leaves the
    set after it unchanged, but from pair r down, as here, the last orbit
    fills its complement two steps sooner.
    """
    size = 1 << nbits
    full = (1 << size) - 1
    clears = []
    for k in range(nbits):
        width = 1 << k
        clear, period = (1 << width) - 1, 2 * width
        while period < size:
            clear |= clear << period
            period *= 2
        clears.append(clear)
    steps = []
    for v in _generators(nbits):
        zero_at_v, moves = full, []
        for k in range(nbits):
            if v >> k & 1:
                zero_at_v ^= full ^ clears[k]
                moves.append((1 << (k ^ 1), clears[k ^ 1]))
        steps.append((zero_at_v, tuple(moves)))
    return tuple(steps)


def _orbit_bitset(start: int, nbits: int, rest: int) -> int:
    """The orbit of a state as a bitset: steps S |= perm_v(S & P_v), cycling through the generators.

    It stops once len(steps) steps in a row add nothing, since S is then
    closed under every generator, or once S equals rest: a union of orbits
    that holds start, such as the complement of the orbits already closed,
    which the group maps onto itself, so S cannot grow past it.
    """
    steps = _closure_steps(nbits)
    orbit, quiet = 1 << start, 0
    while True:
        for zero_at_v, moves in steps:
            moved = orbit & zero_at_v
            for shift, clear in moves:
                moved = ((moved & clear) << shift) | ((moved >> shift) & clear)
            grown = orbit | moved
            if grown != orbit:
                orbit, quiet = grown, 0
                if orbit == rest:
                    return orbit
            else:
                quiet += 1
                if quiet == len(steps):
                    return orbit


def is_group_fixed(psi: QuadraticRefinement) -> bool:
    """Whether every generating transvection fixes psi, i.e. psi(v) = 1 at each generator v."""
    return all((psi.state & v).bit_count() & 1 for v in _generators(psi.nbits))


class OrbitClass(_Value):
    __slots__ = ("arf_label", "size", "representative")


class OrbitReport(_Value):
    """Orbit decomposition data; two classes are expected, one per Arf value."""

    __slots__ = ("rank", "orbits")


def orbit_decomposition(r: int) -> OrbitReport:
    """Partition all refinements into orbits, labelled by the Arf invariant.

    Each orbit is closed from the least state not yet seen, which is therefore
    its lexicographically least member and its representative.
    """
    r = _check_int(r, "rank", 1, DECOMPOSITION_RANK_LIMIT)
    n = 2 * r
    everything = (1 << (1 << n)) - 1
    seen = 0
    classes: list[OrbitClass] = []
    while seen != everything:
        s = (~seen & (seen + 1)).bit_length() - 1  # the lowest clear bit of seen
        orbit = _orbit_bitset(s, n, everything & ~seen)
        if orbit & seen:
            raise ArithmeticError("orbits overlap")
        seen |= orbit
        rep = QuadraticRefinement._trusted(n, s)
        classes.append(OrbitClass(arf(rep), orbit.bit_count(), rep))
    classes.sort(key=lambda c: (c.arf_label, c.representative.state))
    return OrbitReport(r, tuple(classes))
