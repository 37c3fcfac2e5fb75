"""Exact linear algebra for the standard hyperbolic alternating form.

All values are immutable tuples of Python integers, so every operation is
exact at any size.  The basis of Z^(2r) is ordered (u1, v1, ..., ur, vr) and
the form takes +1 on each (ui, vi) pair, which keeps its Gram matrix J block
diagonal.  Matrices act on column vectors from the left; covectors are row
functionals, acted on the right by composition.  J is a signed permutation,
so no kernel multiplies by it.

The public constructors coerce values from outside to ints and check them:
a matrix for shape and form, a covector for shape.  The `_trusted`
constructors wrap what the package built from values already checked
(products, inverses, transvections, words, covector arithmetic) and skip
both; only the public matrix constructor records its form check, in
`SymplecticMatrix._checked`.  Coercion refuses a value that is not integral,
such as 2.5, inf or nan, rather than truncating it.  Entries are read by
`_as_int_tuple` (a matrix's only when one pass over all their types finds an
entry that is not an exact int); every other integer argument of the package (a rank, index,
modulus, length, count or scalar) is read by `_check_int`, the one guard and
message for its bounds, as `_same_rank` is for the rule that two operands share a rank.

There is no separate mod-2 type.  Mod-2 data is read as the parities of these
integer objects (`Covector.reduce_to(2)` for covectors); the refinement code
in `quadratic` packs those parities into 2r-bit ints internally.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add, attrgetter, lshift, mul, neg, sub

from .limits import VERIFY_RANK_LIMIT

_setattr = object.__setattr__


class _Value:
    """Base of the package's immutable value classes, whose fields are their public `__slots__`.

    `_fields` leaves out the slots whose names start with `_`: these hold a
    private record, such as `SymplecticMatrix._checked`, and take no part in
    equality, hash, repr, copying or pickling.  `Name(*values)` stores the
    values in field order and raises TypeError unless there is one per
    field; a class that coerces or checks its input defines its own
    `__init__`.  Objects are equal only to objects of their own class with
    an equal field tuple, hash as that tuple, and print as
    `Name(field=value, ...)`.  Assigning or deleting a slot raises
    AttributeError, so constructors set them with `object.__setattr__`.
    `copy`, `deepcopy` and `pickle` rebuild an object by calling its class on
    its field values in order (`__reduce__`), so a copy passes the public
    constructor again and gets its private slots from it.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple([name for name in cls.__slots__ if not name.startswith("_")])
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

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def _integral(x) -> int | None:
    """x as an int if int(x) == x (3, 3.0, True), else None (2.5, inf, nan, "3", None)."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == x else None


def _as_int_tuple(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple of ints; ValueError if one is not integral (2.5, inf, nan, "3").

    A tuple whose entries all have the exact type int is returned as it is,
    after one C-level pass over their types.  Any other entry (a bool, an
    `IntEnum` member, an integral float) is read by int() and must equal it.
    """
    values = tuple(values)
    if set(map(type, values)) == {int}:
        return values
    try:
        ints = tuple([*map(int, values)])
    except (ValueError, OverflowError):  # "a", nan, inf
        ints = None
    if ints != values:
        bad = next(v for v in values if _integral(v) is None)
        raise ValueError(f"entries must be integers, got {bad!r}")
    return ints


def _check_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """Return value as an int; raise ValueError unless it is an integer in lo..hi (None: unbounded).

    The one guard on every integer argument, so each bound has one message:
    "<what> must lie in <lo>..<hi>, got <value!r>", or with hi None and lo 1,
    0 or None "<what> must be a positive / a non-negative / an integer, got ...".
    """
    n = _integral(value)
    if n is None or (lo is not None and n < lo) or (hi is not None and n > hi):
        if hi is not None:
            raise ValueError(f"{what} must lie in {lo}..{hi}, got {value!r}")
        kind = "an" if lo is None else "a positive" if lo else "a non-negative"
        raise ValueError(f"{what} must be {kind} integer, got {value!r}")
    return n


def _same_rank(m: int, n: int) -> None:
    """The one guard that two operands share a rank: m and n are two ranks or two dimensions."""
    if m != n:
        raise ValueError("rank mismatch")


def _pairing_pays(x, y) -> bool:
    """Whether dot products of rows like x with rows like y are cheaper paired (Winograd).

    An O(n) probe of one row of each operand (for a form check, the first
    hyperbolic pair of vectors).  Pair when three things hold.  Each row's
    widest entry, of w bits, has (w - 64)(n - 2) >= 2560: the measured
    crossover over width and dimension n (about 1340 bits at n = 4, 320 at
    n = 12, 90 at n = 100, never at n = 2).  The two rows' widest entries
    differ by at most half again, and no entry of either is narrower than a
    quarter of the widest: a factor a + b is as wide as its wider summand,
    while a plain product by a zero or a narrow entry is nearly free.  A
    narrow x is decided on its own row.  Narrow entries keep the plain path:
    there a product costs about what an addition does, and the extra
    additions and `map` layers cost more than the halved multiplications
    save (paired on every input, the narrow rank-6 `mul`/`inv` calls of the
    `arith` benchmark ran 6 to 28% slower in process).
    """
    n = len(x)
    wx = max(map(abs, x)).bit_length()
    if (wx - 64) * (n - 2) < 2560:
        return False
    wy = max(map(abs, y)).bit_length()
    lo, hi = min(wx, wy), max(wx, wy)
    return ((lo - 64) * (n - 2) >= 2560 and 2 * hi <= 3 * lo
            and 4 * min(map(abs, (*x, *y))).bit_length() >= hi)


def _winograd(cols):
    """Winograd's paired dot products (1968) with the columns cols of B.

    Returns the function taking row i of A to row i of AB:
    C_ij = sum_k (A_i,2k + B_2k+1,j)(A_i,2k+1 + B_2k,j) - xi_i - eta_j, with
    xi_i = sum_k A_i,2k A_i,2k+1, computed once per row, and
    eta_j = sum_k B_2k,j B_2k+1,j, computed here once per column.  That is
    n^3/2 + n^2 multiplications instead of n^3 (1008 instead of 1728 at
    2r = 12); every entry is still multiplied as its own int, and the sums
    are exact.
    """
    halves = [(col[1::2], col[0::2], -sum(map(mul, col[0::2], col[1::2]))) for col in cols]

    def dots(row):
        evens, odds = row[0::2], row[1::2]
        xi = sum(map(mul, evens, odds))
        return tuple([sum(map(mul, map(add, evens, bodd), map(add, odds, beven)), neta - xi)
                      for bodd, beven, neta in halves])
    return dots


def _matmul(a, b):
    """AB for integer matrices given as tuples of rows, as a tuple of row tuples.

    Each row of A takes one of two paths by its own zero count.  A row with
    at least a quarter of its entries zero is the sum of A_ik B_k over its
    nonzero entries, B's rows combined by C-level maps; an entry 1 adds B_k
    as it is, so a row that is 1 at k and 0 elsewhere gives B's row k itself,
    not a copy.  The identity, J and the seeded words have one to three
    nonzero entries in most rows.  Any other row takes dot products with B's
    columns, B being transposed once, on the first such row: combining rows
    for every row was 1.4 to 1.8 times slower on the dense small-entry
    products of the `arith` benchmark.  Those dot products are paired by
    `_winograd` when `_pairing_pays` for the first such row and B's first
    column, and A has at least two rows: a one-row product, such as the
    covector action, saves nothing by pairing.
    """
    cols = paired = None
    out = []
    for row in a:
        if 4 * row.count(0) < len(row):
            if cols is None:
                cols = tuple(zip(*b))
                if len(a) > 1 and _pairing_pays(row, cols[0]):
                    paired = _winograd(cols)
            out.append(tuple([sum(map(mul, row, col)) for col in cols]) if paired is None
                       else paired(row))
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


@lru_cache(maxsize=8)  # a run uses a few dimensions; the bound lets a large identity go
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
        n = 2 * _check_int(r, "rank", 1)
        j = _check_int(j, "basis index", 0, n - 1)
        return cls(tuple(int(i == j) for i in range(n)))

    @classmethod
    def u(cls, r: int, i: int) -> "Vector":
        """The i-th (1-based) vector of the first kind in its hyperbolic pair."""
        return cls.unit(r, 2 * _check_int(i, "pair index", 1, _check_int(r, "rank", 1)) - 2)

    @classmethod
    def v(cls, r: int, i: int) -> "Vector":
        """The i-th (1-based) vector of the second kind in its hyperbolic pair."""
        return cls.unit(r, 2 * _check_int(i, "pair index", 1, _check_int(r, "rank", 1)) - 1)

    def __add__(self, other: "Vector") -> "Vector":
        _same_rank(len(self.coords), len(other.coords))
        return Vector(tuple([*map(add, self.coords, other.coords)]))

    def __sub__(self, other: "Vector") -> "Vector":
        _same_rank(len(self.coords), len(other.coords))
        return Vector(tuple([*map(sub, self.coords, other.coords)]))

    def __rmul__(self, k: int) -> "Vector":
        if isinstance(k, _Value):  # a package value object on the left: Python's TypeError
            return NotImplemented
        k = _check_int(k, "scalar")
        return Vector(tuple([k * a for a in self.coords]))


def _phi_row(coords: Sequence[int]) -> list[int]:
    """phi(v, -) as a row, (-b_1, a_1, ..., -b_r, a_r) for v = (a_1, b_1, ..., a_r, b_r).

    phi(v, w) is this row dotted with w, and the plain and packed form checks
    take their signs from it; only `_signed_transpose` writes them again, by
    its own slices, for the speed its docstring measures.  The row is a
    signed permutation of v, so building it multiplies nothing.
    """
    row = list(coords)
    row[0::2] = map(neg, coords[1::2])
    row[1::2] = coords[0::2]
    return row


def phi_eval(v: Vector, w: Vector) -> int:
    """Value of the hyperbolic form: sum over pairs of a_i b'_i - b_i a'_i."""
    _same_rank(len(v.coords), len(w.coords))
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
        m = _check_int(modulus, "modulus", 0)
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
        return cls((0,) * (2 * _check_int(r, "rank", 1)), modulus)

    @classmethod
    def unit(cls, r: int, j: int, modulus: int = 0) -> "Covector":
        return cls(Vector.unit(r, j).coords, modulus)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _compatible(self, other: "Covector") -> None:
        _same_rank(len(self.coords), len(other.coords))
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
        _same_rank(len(v.coords), len(self.coords))
        total = sum(map(mul, self.coords, v.coords))
        return total % self.modulus if self.modulus else total

    def act(self, a: "SymplecticMatrix") -> "Covector":
        """Right action by composition: (x.A)(w) = x(Aw)."""
        if not isinstance(a, SymplecticMatrix):
            raise TypeError("expected a SymplecticMatrix")
        _same_rank(len(a.rows), len(self.coords))
        return Covector._trusted(_matmul((self.coords,), a.rows)[0], self.modulus)

    def reduce_to(self, m: int) -> "Covector":
        m = _check_int(m, "modulus", 0)
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
    A J A^T == J.  J is 1 exactly at (2k, 2k+1), -1 at (2k+1, 2k) and 0
    elsewhere.  One of three paths decides, each with an exit at the first
    mismatch:

    - packed, when n >= 8 and no entry is wider than 128 bits, which reads
      every entry: `_pairs_as_basis_packed`, n dot products with packed
      columns, about n^2 multiplications of an entry by a packed column;
    - paired, else when `_pairing_pays` on w_0 and w_1 (wide entries):
      `_pairs_as_basis_paired`, about n^3/4 multiplications;
    - plain otherwise, `_pairs_as_basis_plain`: the pairs i < j only, the
      diagonal being 0 and the lower triangle following by antisymmetry, so
      n(n-1)/2 pairings, each one dot product with w_i's phi-row, about
      n^3/2 multiplications.

    Measured crossovers of packed against plain, in process on one CPU
    (fastest of 7 repeats, the width guard included): at 2r = 12, 37 against
    54 us on the 7-bit `arith` words, 118 against 134 us at 127 bits and 166
    against 148 us at 158 bits; at 2r = 8, 19 against 22 us on narrow words
    and even at 125 bits; at 2r = 6, even, and at 2r = 4, slower (6.8
    against 6.3 us); at 2r = 100, 3.1 against 16.9 ms on narrow words.  A
    packed product by a wider entry costs more than the n/2 plain products it
    replaces, so the crossover width barely moves with n.  Pairing pays from
    about 90 bits at 2r = 100, where packing is faster still (43 against 60
    ms, plain 69, at 107 bits), so packing is tried first.  A matrix that
    fails the guard with n >= 8 pays for it, about 6 to 8 us at 2r = 12,
    under 2% of a paired check of 950-bit entries.
    """
    vectors = tuple(vectors)
    n = len(vectors)
    if n >= 8:
        m = max(map(abs, chain.from_iterable(vectors)))
        if m.bit_length() <= 128:
            return _pairs_as_basis_packed(vectors, m)
    if _pairing_pays(vectors[0], vectors[1]):
        return _pairs_as_basis_paired(vectors)
    return _pairs_as_basis_plain(vectors)


def _pairs_as_basis_plain(vectors) -> bool:
    """`_pairs_as_basis` by one dot product with w_i's phi-row per pair i < j."""
    n = len(vectors)
    for i in range(n):
        row = _phi_row(vectors[i])
        for j in range(i + 1, n):
            if sum(map(mul, row, vectors[j])) != (j == i + 1 and i % 2 == 0):  # J_ij, as 0 or 1
                return False
    return True


def _pairs_as_basis_packed(vectors, m: int) -> bool:
    """`_pairs_as_basis` in n dot products, exactly, given m >= the largest |entry|.

    Column k is packed into one int, Q_k = sum_j w_j[k] 2^(f j), a field of f
    bits per vector, each holding a signed (balanced) value.  The phi-row of
    the packed columns, (-Q_1, Q_0, -Q_3, Q_2, ...), dotted with w_i is
    -sum_j phi(w_i, w_j) 2^(f j), and it is compared with row i of -J packed
    the same way: -2^(f (i+1)) for even i, 2^(f (i-1)) for odd i.  So the
    form's signs come from `_phi_row` alone.  Exactness: f is one bit wider
    than n m^2, so each difference d_j = phi(w_i, w_j) - J_ij, at most
    n m^2 + 1 in size, has |d_j| < 2^f; and a sum of d_j 2^(f j) with every
    |d_j| < 2^f is 0 only if every d_j is, since the lowest nonzero d_j would
    leave a nonzero remainder mod 2^(f (j+1)).  So the packed rows equal
    -J's iff every phi(w_i, w_j) equals J_ij.
    """
    n = len(vectors)
    f = (n * m * m).bit_length() + 1
    phi = _phi_row([sum(map(lshift, col, range(0, f * n, f))) for col in zip(*vectors)])
    for i, w in enumerate(vectors):
        if sum(map(mul, phi, w)) != (-(1 << f * (i + 1)) if not i & 1 else 1 << f * (i - 1)):
            return False
    return True


def _pairs_as_basis_paired(vectors) -> bool:
    """`_pairs_as_basis` by Winograd's pairing, with the same exit at the first mismatch.

    With w = (a_1, b_1, ..., a_r, b_r) and eta(w) = sum_k a_k b_k, computed
    once per vector, phi(w, w') = sum_k (a_k + a'_k)(b'_k - b_k) + eta(w) -
    eta(w'): r multiplications per pairing instead of 2r (468 instead of 792
    at 2r = 12).
    """
    halves = [(w[0::2], w[1::2]) for w in vectors]
    etas = [sum(map(mul, a, b)) for a, b in halves]
    n = len(halves)
    for i in range(n):
        a, b = halves[i]
        eta = etas[i]
        for j in range(i + 1, n):
            a2, b2 = halves[j]
            if (sum(map(mul, map(add, a, a2), map(sub, b2, b)), eta)
                    != (j == i + 1 and i % 2 == 0) + etas[j]):  # J_ij + eta(w_j)
                return False
    return True


def _signed_transpose(rows) -> tuple[tuple[int, ...], ...]:
    """-J A^T J: entry (i, j) is +-A[j^1][i^1], with sign + when i + j is even.

    Built by slices, with no per-entry Python step.  With the rows swapped in
    pairs, column c of the result lists A[j^1][c] over j; row 2k is column
    2k+1 with its odd positions negated, and row 2k+1 is column 2k with its
    even positions negated.  In process (Python 3.11 on a 2-vCPU VM, fastest
    of 5 over 30 matrices of 7-bit entries) this took 9.5 against 15.8 us for
    a per-entry index formula at 2r = 12, 27 against 52 us at 2r = 24, and
    3.2 us for both at 2r = 4.
    """
    swapped = list(rows)
    swapped[0::2], swapped[1::2] = rows[1::2], rows[0::2]
    cols = zip(*swapped)
    out = []
    for even, odd in zip(cols, cols):
        row = list(odd)
        row[1::2] = map(neg, odd[1::2])
        out.append(tuple(row))
        row = list(even)
        row[0::2] = map(neg, even[0::2])
        out.append(tuple(row))
    return tuple(out)


def _square_rows(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows coerced to int tuples; ValueError unless they form a square of even dimension.

    The entry types of the whole matrix are read in one C-level pass; only a
    matrix with an entry that is not an exact int is coerced row by row.
    """
    rows = tuple(map(tuple, rows))
    if set(map(type, chain.from_iterable(rows))) != {int}:
        rows = tuple([*map(_as_int_tuple, rows)])
    n = len(rows)
    if n % 2 or set(map(len, rows)) != {n}:  # an empty matrix has no row of length 0
        raise ValueError("matrix must be square of even dimension")
    return rows


def is_symplectic(matrix: SymplecticMatrix | Sequence[Sequence[int]]) -> bool:
    """Whether A^T J A == J, exactly: the columns of A pair as the basis does.

    The constructor checks the rows, A J A^T == J, instead; either makes A
    invertible and then implies the other.  Raises ValueError on a
    non-square or odd-dimension matrix.
    """
    rows = matrix.rows if isinstance(matrix, SymplecticMatrix) else _square_rows(matrix)
    return _pairs_as_basis(zip(*rows))


class SymplecticMatrix(_Value):
    """Integer matrix preserving the hyperbolic form; validated on construction."""

    __slots__ = ("rows", "_checked")
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        self.__post_init__(rows)

    def __post_init__(self, rows: Iterable[Iterable[int]]) -> None:
        """Coerce, check and store the rows; perfbench traces it as `symplectic.construct`."""
        rows = _square_rows(rows)
        if not _pairs_as_basis(rows):  # A J A^T == J
            raise ValueError("matrix does not preserve the hyperbolic form")
        _setattr(self, "rows", rows)
        _setattr(self, "_checked", True)

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
        return cls._trusted(_identity_rows(2 * _check_int(r, "rank", 1)))

    def __mul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        _same_rank(len(self.rows), len(other.rows))
        # products of form-preserving matrices preserve the form
        return SymplecticMatrix._trusted(_matmul(self.rows, other.rows))

    def inverse(self) -> "SymplecticMatrix":
        """Exact inverse -J A^T J, backed by the postcondition A . inv == I.

        As J is a signed permutation the inverse is a signed transpose and
        needs no multiplication.  Since J^-1 = -J, A (-J A^T J) = I holds iff
        A J A^T = J, that is iff the rows of A pair under phi as the basis
        vectors do.  The public constructor checked exactly that on these
        rows; any other matrix (`_trusted`: a product, word, transvection, -I
        or inverse) is checked here, exactly, at half the cost of the product
        A . inv, and ArithmeticError is raised if that fails.
        """
        rows = self.rows
        if not getattr(self, "_checked", False) and not _pairs_as_basis(rows):
            raise ArithmeticError("inverse postcondition failed")
        return SymplecticMatrix._trusted(_signed_transpose(rows))

    def apply(self, v: Vector) -> Vector:
        _same_rank(len(self.rows), len(v.coords))
        return Vector(tuple(sum(map(mul, row, v.coords)) for row in self.rows))

    def column(self, j: int) -> Vector:
        j = _check_int(j, "column index", 0, len(self.rows) - 1)
        return Vector(tuple(row[j] for row in self.rows))


def transvection(v: Vector) -> SymplecticMatrix:
    """Matrix of w -> w + phi(v, w) v, symplectic for every integer v: I + v phi(v, -)."""
    coords = v.coords
    row = _phi_row(coords)
    return SymplecticMatrix._trusted(tuple([
        tuple([e + x * c for e, c in zip(ident, row)])
        for x, ident in zip(coords, _identity_rows(len(coords)))]))


def neg_identity(r: int) -> SymplecticMatrix:
    rows = _identity_rows(2 * _check_int(r, "rank", 1))
    return SymplecticMatrix._trusted(tuple([tuple([*map(neg, row)]) for row in rows]))


@lru_cache(maxsize=VERIFY_RANK_LIMIT)  # every rank verify accepts; a rank-100 table holds about 6 MB
def _word_steps(r: int) -> tuple[tuple[tuple[int, Callable | None, int], tuple[tuple[int, Callable], ...]], ...]:
    """Per direction of the seeded word generator, in draw order: ((a, op, b), updates).

    This defines the order: u_1..u_r, v_1..v_r, then u_i + v_j, then
    u_i - v_j, with i outer and j inner.  `rng.choices` draws a step by its
    index, so the order fixes every seeded word.  The direction is e_a op e_b
    (op add or sub), or e_a when op is None (b is then a).  updates holds
    (j, add) where phi(v, e_j) = 1 and (j, sub) where it is -1.
    """
    r = _check_int(r, "rank", 1)
    units = _identity_rows(2 * r)
    triples = [(2 * i + k, None, 2 * i + k) for k in (0, 1) for i in range(r)]
    triples += [(2 * i, op, 2 * j + 1) for op in (add, sub) for i in range(r) for j in range(r)]
    steps = []
    for a, op, b in triples:
        row = _phi_row(units[a] if op is None else [*map(op, units[a], units[b])])
        updates = tuple([(j, add if c == 1 else sub) for j, c in enumerate(row) if c])
        steps.append(((a, op, b), updates))
    return tuple(steps)


def transvection_candidates(r: int) -> tuple[Vector, ...]:
    """The directions of `_word_steps` as `Vector`s, in its order; kept for perfbench and the tests."""
    r = _check_int(r, "rank", 1)
    units = _identity_rows(2 * r)
    return tuple([Vector(units[a] if op is None else map(op, units[a], units[b]))
                  for (a, op, b), _ in _word_steps(r)])


def random_symplectic_word(r: int, word_length: int, rng: random.Random) -> SymplecticMatrix:
    """Product of word_length transvections drawn from the candidate set by rng.

    The product is built by column updates: right-multiplying A by T_v adds
    phi(v, e_j) = +-1 times A v to column j, for at most two j, and A v is a
    column or the sum or difference of two, so a step is up to three C-level
    maps of add or sub (`_word_steps`), O(r) work with no multiplication.
    The columns live in one mutable list, an updated column replacing its
    entry, and are frozen into a matrix once, at the end.  rng draws the
    whole word at once, exactly as `rng.choices(transvection_candidates(r),
    k=word_length)` would.
    """
    n = _check_int(word_length, "word length", 0)
    r = _check_int(r, "rank", 1)
    if not n:  # the empty word draws nothing and needs no step table
        return SymplecticMatrix.identity(r)
    cols = list(_identity_rows(2 * r))  # I is symmetric: its rows are its columns
    for (a, op, b), updates in rng.choices(_word_steps(r), k=n):
        av = cols[a] if op is None else [*map(op, cols[a], cols[b])]
        for j, f in updates:
            cols[j] = [*map(f, cols[j], av)]
    return SymplecticMatrix._trusted(tuple(zip(*cols)))
