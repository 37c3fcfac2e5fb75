"""Exact linear algebra for the standard hyperbolic alternating form.

All values are immutable tuples of Python integers, so every operation is
exact at any size.  The basis of Z^(2r) is ordered (u1, v1, ..., ur, vr) and
the form takes +1 on each (ui, vi) pair, which keeps its Gram matrix J block
diagonal.  Matrices act on column vectors from the left; covectors are row
functionals, acted on the right by composition.

J is a signed permutation, so no kernel multiplies by it.  The form's signs
are written once, in `_phi_row(v)`, the row phi(v, -) = (-b_1, a_1, ...,
-b_r, a_r) of v = (a_1, b_1, ..., a_r, b_r): `phi_eval` and the form check
take dot products with it, `transvection(v)` is I + v phi(v, -), and the
word steps read their coefficients from it.  A matrix preserves
the form iff phi(col_i, col_j) = J_ij for every pair of columns i < j
(antisymmetry covers the rest).  The inverse of a form-preserving matrix is
the signed transpose -J A^T J, and its postcondition is the same pairing
check on the rows: A (-J A^T J) = I iff A J A^T = J, since J^-1 = -J.  So
the inverse is verified exactly at half the cost of multiplying back.
Matrices from outside are coerced to ints, shape-checked and form-checked
on construction; products and inverses of matrices already validated skip
both.  Likewise a covector from outside is coerced and shape-checked, while
the action, sums, differences, negation and reduction of covectors already
validated skip that (entries are still reduced into [0, m) for a modulus m).
Coercion refuses a value that is not integral, such as 2.5, inf or nan,
rather than truncating it.

The value classes here and in the other modules derive from `_Value`, a
`__slots__` base that gives what frozen dataclasses gave (equality within
one class, hash, repr, immutability, copying and pickling) without importing
`dataclasses`, which with `inspect` and its own code generation added about
30 ms to every CLI start.  Its one positional constructor stores the fields
in `__slots__` order; only the classes that coerce or check their input
define their own.

Seeded words are built by column updates, not matrix products: column j of
A T_v is A e_j + phi(v, e_j) A v, and every candidate direction has at most
two nonzero coordinates, so a step reads two columns and rewrites at most
two, O(r) work instead of a (2r)^3 product.

A product AB is built row by row, each row of A taking one of two paths by
its own zero count.  A row with at least a quarter of its entries zero
(`4 * row.count(0) >= len(row)`) gives the sum of A_ik B_k over its nonzero
entries, B's rows combined by C-level maps; an entry 1 adds B_k as it is,
so a product by the identity reuses B's row tuples.  The identity, J and
the seeded words have one to three nonzero entries in most rows.  Every
other row takes dot products with B's columns, B being transposed once, on
the first such row: combining rows for every row was 1.4 to 1.8 times
slower on the dense small-entry products of the `arith` benchmark.  The
covector action x.A is the one-row product (x) A through the same kernel, so
a zero, unit or 0/1 covector is combined from A's rows.

On the per-call paths (coercion, products, inverses, covector arithmetic)
tuples are built from a list, not from a generator expression or a bare
`map`: that is faster for these short rows, and the tuple is allocated at its
final size.  One built from an iterator without a length is resized, and when
freed it joins the interpreter's free list of its final size, which then
grows by one tuple per build up to a cap of 2000.

There is no separate mod-2 type.  Mod-2 data is read as the parities of these
integer objects (`Covector.reduce_to(2)` for covectors); the refinement code
in `quadratic` packs those parities into 2r-bit ints internally.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import compress, repeat
from operator import add, attrgetter, mul, neg, sub

_setattr = object.__setattr__


class _Value:
    """Base of the package's immutable value classes, whose fields are their `__slots__`.

    `Name(*values)` stores the values in `__slots__` order and raises
    TypeError unless there is one per field; a class that coerces or checks
    its input defines its own `__init__`.  Objects are equal only to objects
    of their own class with an equal field tuple, hash as that tuple, and
    print as `Name(field=value, ...)`.  Assigning or deleting a field raises
    AttributeError, so constructors set fields with `object.__setattr__`.
    `copy`, `deepcopy` and `pickle` rebuild an object by calling its class on
    `_init_args()`, by default the field values in order.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls.__slots__
        cls._key = attrgetter(*cls._fields)  # with one field, the value rather than a 1-tuple

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self._fields)} values,"
                            f" got {len(values)}")
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        key = self._key(self)
        return hash(key if len(self._fields) > 1 else (key,))

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _init_args(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return self.__class__, self._init_args()


def _integral(x) -> int | None:
    """x as an int if int(x) == x (3, 3.0, True), else None (2.5, inf, nan, "3", None)."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == x else None


def _as_int_tuple(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple of ints; ValueError if one is not integral (2.5, inf, nan, "3").

    int() returns an int entry itself, so for a row of ints the check is one
    C-level comparison of two tuples of identical objects.
    """
    values = tuple(values)
    try:
        ints = tuple([*map(int, values)])
    except (ValueError, OverflowError):  # "a", nan, inf
        ints = None
    if ints != values:
        bad = next(v for v in values if _integral(v) is None)
        raise ValueError(f"entries must be integers, got {bad!r}")
    return ints


def _check_rank(r: int, limit: int | None = None) -> int:
    """Return r as an int; raise ValueError unless it is an integer in 1..limit (no upper bound if None).

    This is the one guard on every rank limit, so each limit has one message.
    """
    n = _integral(r)
    if n is None or n < 1 or (limit is not None and n > limit):
        raise ValueError(f"rank must be a positive integer, got {r!r}" if limit is None
                         else f"rank must lie in 1..{limit}, got {r!r}")
    return n


def _check_index(i, lo: int, hi: int, what: str) -> int:
    """Return i as an int; raise ValueError "<what> out of range" unless it is an integer in lo..hi."""
    n = _integral(i)
    if n is None or not lo <= n <= hi:
        raise ValueError(f"{what} out of range")
    return n


def _matmul(a, b):
    """AB for integer matrices given as tuples of rows, as a tuple of row tuples.

    A row of A with at least a quarter of its entries zero is combined from
    B's rows, and one that is 1 at k and 0 elsewhere gives B's row k itself,
    not a copy; any other row takes dot products with B's columns (see the
    module docstring).
    """
    cols = None
    out = []
    for row in a:
        if 4 * row.count(0) < len(row):
            if cols is None:
                cols = tuple(zip(*b))
            out.append(tuple([sum(map(mul, row, col)) for col in cols]))
            continue
        acc = None
        for x, brow in zip(compress(row, row), compress(b, row)):
            term = brow if x == 1 else map(mul, repeat(x), brow)
            acc = term if acc is None else map(add, acc, term)
        if acc is None:
            out.append((0,) * len(b[0]))
        else:
            out.append(acc if acc.__class__ is tuple else tuple([*acc]))
    return tuple(out)


def _transpose(rows):
    return tuple(zip(*rows))


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class Vector(_Value):
    """Integer column vector in the ordered hyperbolic basis."""

    __slots__ = ("coords",)
    coords: tuple[int, ...]

    def __init__(self, coords: Iterable[int]) -> None:
        coords = _as_int_tuple(coords)
        if not coords or len(coords) % 2:
            raise ValueError("a vector needs a positive even number of coordinates")
        _setattr(self, "coords", coords)

    @property
    def rank(self) -> int:
        return len(self.coords) // 2

    @classmethod
    def unit(cls, r: int, j: int) -> "Vector":
        n = 2 * _check_rank(r)
        j = _check_index(j, 0, n - 1, "basis index")
        return cls(tuple(int(i == j) for i in range(n)))

    @classmethod
    def u(cls, r: int, i: int) -> "Vector":
        """The i-th (1-based) vector of the first kind in its hyperbolic pair."""
        return cls.unit(r, 2 * _check_index(i, 1, _check_rank(r), "basis index") - 2)

    @classmethod
    def v(cls, r: int, i: int) -> "Vector":
        """The i-th (1-based) vector of the second kind in its hyperbolic pair."""
        return cls.unit(r, 2 * _check_index(i, 1, _check_rank(r), "basis index") - 1)

    def _same_rank(self, other: "Vector") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError("rank mismatch")

    def __add__(self, other: "Vector") -> "Vector":
        self._same_rank(other)
        return Vector(tuple([*map(add, self.coords, other.coords)]))

    def __sub__(self, other: "Vector") -> "Vector":
        self._same_rank(other)
        return Vector(tuple([*map(sub, self.coords, other.coords)]))

    def __rmul__(self, k: int) -> "Vector":
        k = int(k)
        return Vector(tuple([k * a for a in self.coords]))


def _phi_row(coords: Sequence[int]) -> list[int]:
    """phi(v, -) as a row, (-b_1, a_1, ..., -b_r, a_r) for v = (a_1, b_1, ..., a_r, b_r).

    This is the one place the form's signs are written: phi(v, w) is the dot
    product of this row with w.  The row is a signed permutation of v, so
    building it multiplies nothing.
    """
    row = list(coords)
    row[0::2] = map(neg, coords[1::2])
    row[1::2] = coords[0::2]
    return row


def phi_eval(v: Vector, w: Vector) -> int:
    """Value of the hyperbolic form: sum over pairs of a_i b'_i - b_i a'_i."""
    if len(v.coords) != len(w.coords):
        raise ValueError("rank mismatch")
    return sum(map(mul, _phi_row(v.coords), w.coords))


class Covector(_Value):
    """Row functional with coefficients in Z (modulus 0) or Z/modulus."""

    __slots__ = ("coords", "modulus")
    coords: tuple[int, ...]
    modulus: int

    def __init__(self, coords: Iterable[int], modulus: int = 0) -> None:
        self.__post_init__(coords, modulus)

    def __post_init__(self, coords: Iterable[int], modulus: int) -> None:
        """Coerce, check and store the fields; perfbench traces it as `symplectic.construct`."""
        m = int(modulus)
        if m < 0:
            raise ValueError("modulus must be non-negative")
        coords = _as_int_tuple(coords)
        if not coords or len(coords) % 2:
            raise ValueError("a covector needs a positive even number of coordinates")
        if m:
            coords = tuple([c % m for c in coords])
        _setattr(self, "coords", coords)
        _setattr(self, "modulus", m)

    @classmethod
    def _trusted(cls, coords: tuple[int, ...], modulus: int) -> "Covector":
        """Wrap a tuple of ints of positive even length and a modulus >= 0; no coercion, no shape check.

        Coordinates are still reduced into [0, modulus) when modulus > 0.
        """
        x = object.__new__(cls)
        _setattr(x, "coords", tuple([c % modulus for c in coords]) if modulus else coords)
        _setattr(x, "modulus", modulus)
        return x

    @property
    def rank(self) -> int:
        return len(self.coords) // 2

    @classmethod
    def zero(cls, r: int, modulus: int = 0) -> "Covector":
        return cls((0,) * (2 * _check_rank(r)), modulus)

    @classmethod
    def unit(cls, r: int, j: int, modulus: int = 0) -> "Covector":
        return cls(Vector.unit(r, j).coords, modulus)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _compatible(self, other: "Covector") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError("rank mismatch")
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")

    def __add__(self, other: "Covector") -> "Covector":
        self._compatible(other)
        return Covector._trusted(tuple([*map(add, self.coords, other.coords)]), self.modulus)

    def __sub__(self, other: "Covector") -> "Covector":
        self._compatible(other)
        return Covector._trusted(tuple([*map(sub, self.coords, other.coords)]), self.modulus)

    def __neg__(self) -> "Covector":
        return Covector._trusted(tuple([*map(neg, self.coords)]), self.modulus)

    def evaluate(self, v: Vector) -> int:
        """Pairing with a vector, reduced into the covector's coefficient ring."""
        if len(v.coords) != len(self.coords):
            raise ValueError("rank mismatch")
        total = sum(map(mul, self.coords, v.coords))
        return total % self.modulus if self.modulus else total

    def act(self, a: "SymplecticMatrix") -> "Covector":
        """Right action by composition: (x.A)(w) = x(Aw)."""
        if not isinstance(a, SymplecticMatrix):
            raise TypeError("expected a SymplecticMatrix")
        if len(a.rows) != len(self.coords):
            raise ValueError("rank mismatch")
        return Covector._trusted(_matmul((self.coords,), a.rows)[0], self.modulus)

    def reduce_to(self, m: int) -> "Covector":
        m = int(m)
        if m < 0:
            raise ValueError("modulus must be non-negative")
        if m == 0:
            if self.modulus != 0:
                raise ValueError("cannot lift a finite-modulus covector back to integers")
            return self
        if self.modulus and self.modulus % m:
            raise ValueError(f"{m} does not divide modulus {self.modulus}")
        return Covector._trusted(self.coords, m)


def _pairs_as_basis(vectors) -> bool:
    """Whether phi(w_i, w_j) == J_ij for the n vectors w_0..w_(n-1), exactly; no product with J.

    Given the columns of A this is A^T J A == J, and given the rows it is
    A J A^T == J.  Each phi(w_i, w_j) is checked against J_ij for the pairs
    i < j only, where J is 1 exactly at (2k, 2k+1) and 0 elsewhere; the
    diagonal is 0 and the lower triangle follows by antisymmetry.  That is
    n(n-1)/2 pairings, each one dot product with w_i's phi-row, about n^3/2
    multiplications, with an exit at the first mismatch.
    """
    vectors = tuple(vectors)
    n = len(vectors)
    for i in range(n):
        row = _phi_row(vectors[i])
        for j in range(i + 1, n):
            if sum(map(mul, row, vectors[j])) != (j == i + 1 and i % 2 == 0):  # J_ij, as 0 or 1
                return False
    return True


def _preserves_form(rows) -> bool:
    """Whether A^T J A == J, exactly: the columns of A pair as the basis does."""
    return _pairs_as_basis(zip(*rows))


def _signed_transpose(rows) -> tuple[tuple[int, ...], ...]:
    """-J A^T J: entry (i, j) is +-A[j^1][i^1], with sign + when i + j is even."""
    n = len(rows)
    return tuple([tuple([rows[j ^ 1][i ^ 1] if not (i + j) & 1 else -rows[j ^ 1][i ^ 1]
                         for j in range(n)]) for i in range(n)])


def _square_rows(rows: Iterable[Iterable[int]], message: str) -> tuple[tuple[int, ...], ...]:
    """The rows coerced to int tuples; ValueError(message) unless they form a square of even dimension."""
    rows = tuple([*map(_as_int_tuple, rows)])
    n = len(rows)
    if n == 0 or n % 2 or any(len(row) != n for row in rows):
        raise ValueError(message)
    return rows


def is_symplectic(matrix: SymplecticMatrix | Sequence[Sequence[int]]) -> bool:
    """Exact form-preservation check; raises on non-square or odd dimension."""
    if isinstance(matrix, SymplecticMatrix):
        return _preserves_form(matrix.rows)
    return _preserves_form(_square_rows(matrix, "expected a square integer matrix of even dimension"))


class SymplecticMatrix(_Value):
    """Integer matrix preserving the hyperbolic form; validated on construction."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        self.__post_init__(rows)

    def __post_init__(self, rows: Iterable[Iterable[int]]) -> None:
        """Coerce, check and store the rows; perfbench traces it as `symplectic.construct`."""
        rows = _square_rows(rows, "matrix must be square of even dimension")
        if not _preserves_form(rows):
            raise ValueError("matrix does not preserve the hyperbolic form")
        _setattr(self, "rows", rows)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "SymplecticMatrix":
        """Wrap rows known to be a form-preserving tuple of int tuples; no coercion, no check."""
        matrix = object.__new__(cls)
        _setattr(matrix, "rows", rows)
        return matrix

    @property
    def rank(self) -> int:
        return len(self.rows) // 2

    @classmethod
    def identity(cls, r: int) -> "SymplecticMatrix":
        return cls._trusted(_identity_rows(2 * _check_rank(r)))

    def __mul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        if len(self.rows) != len(other.rows):
            raise ValueError("rank mismatch")
        # products of form-preserving matrices preserve the form
        return SymplecticMatrix._trusted(_matmul(self.rows, other.rows))

    def inverse(self) -> "SymplecticMatrix":
        """Exact inverse -J A^T J, with the postcondition A . inv == I checked.

        As J is a signed permutation the inverse is a signed transpose and
        needs no multiplication.  Since J^-1 = -J, A (-J A^T J) = I holds iff
        A J A^T = J, that is iff the rows of A pair under phi as the basis
        vectors do.  That check is exact, costs half the product A . inv, and
        ArithmeticError is raised if it fails (a `_trusted` non-member).
        """
        rows = self.rows
        if not _pairs_as_basis(rows):
            raise ArithmeticError("inverse postcondition failed")
        return SymplecticMatrix._trusted(_signed_transpose(rows))

    def apply(self, v: Vector) -> Vector:
        if len(self.rows) != len(v.coords):
            raise ValueError("rank mismatch")
        return Vector(tuple(sum(map(mul, row, v.coords)) for row in self.rows))

    def column(self, j: int) -> Vector:
        return Vector(tuple(row[j] for row in self.rows))


def transvection(v: Vector) -> SymplecticMatrix:
    """Matrix of w -> w + phi(v, w) v, symplectic for every integer v: I + v phi(v, -)."""
    coords = v.coords
    row = _phi_row(coords)
    return SymplecticMatrix._trusted(tuple([
        tuple([e + x * c for e, c in zip(ident, row)])
        for x, ident in zip(coords, _identity_rows(len(coords)))]))


def neg_identity(r: int) -> SymplecticMatrix:
    rows = _identity_rows(2 * _check_rank(r))
    return SymplecticMatrix._trusted(tuple([tuple([*map(neg, row)]) for row in rows]))


@lru_cache(maxsize=None)
def transvection_candidates(r: int) -> tuple[Vector, ...]:
    """Directions used by the seeded word generator: u_i, v_i, and u_i +/- v_j."""
    r = _check_rank(r)
    us = [Vector.u(r, i) for i in range(1, r + 1)]
    vs = [Vector.v(r, i) for i in range(1, r + 1)]
    sums = [us[i] + vs[j] for i in range(r) for j in range(r)]
    diffs = [us[i] - vs[j] for i in range(r) for j in range(r)]
    return tuple(us + vs + sums + diffs)


@lru_cache(maxsize=None)
def _word_steps(r: int) -> tuple[tuple[int, int, int, int, tuple[tuple[int, int], ...]], ...]:
    """Per candidate direction, in transvection_candidates order: (k0, x0, k1, x1, coefficients).

    The direction is v = x0 e_k0 + x1 e_k1 (x1 = 0 for a unit direction), and
    the coefficients are the pairs (j, phi(v, e_j)) with phi(v, e_j) != 0.
    """
    steps = []
    for v in transvection_candidates(r):
        (k0, x0), *rest = [(k, x) for k, x in enumerate(v.coords) if x]
        k1, x1 = rest[0] if rest else (k0, 0)
        coeffs = tuple((j, c) for j, c in enumerate(_phi_row(v.coords)) if c)
        steps.append((k0, x0, k1, x1, coeffs))
    return tuple(steps)


def random_symplectic_word(r: int, word_length: int, rng: random.Random) -> SymplecticMatrix:
    """Product of word_length transvections drawn from the candidate set by rng.

    The product is built by column updates: right-multiplying A by T_v adds
    phi(v, e_j) A v to column j, which is nonzero for at most two j, and A v
    combines at most two columns.  The columns live in one mutable list, an
    updated column replacing its entry, and are frozen into a matrix once, at
    the end.  rng draws exactly as
    `rng.choice(transvection_candidates(r))` would, once per step.
    """
    n = _integral(word_length)
    if n is None:
        raise ValueError(f"word length must be an integer, got {word_length!r}")
    if n < 0:
        raise ValueError("word length must be non-negative")
    r = _check_rank(r)
    steps = _word_steps(r)
    cols = list(_identity_rows(2 * r))  # I is symmetric: its rows are its columns
    for _ in range(n):
        k0, x0, k1, x1, coeffs = rng.choice(steps)
        av = [x0 * a + x1 * b for a, b in zip(cols[k0], cols[k1])]
        for j, c in coeffs:
            cols[j] = [a + c * b for a, b in zip(cols[j], av)]
    return SymplecticMatrix._trusted(_transpose(cols))
