"""Plain-integer reference arithmetic and the seeded element generator.

Nothing here imports symsplit: the `arith` inputs and the products and
inverses they must produce are computed with lists of Python ints, so a
change to the library's own sampling or arithmetic cannot change either.

Conventions match the package documentation: the basis is ordered
(u1, v1, ..., ur, vr), the form takes +1 on each (ui, vi) pair, a covector x
acts on a matrix A by x.A = x A (row times matrix), and elements (x, A)
multiply as (x, A)(y, B) = (x.B + y, AB).
"""

from __future__ import annotations

import random

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# transvection power multipliers: small entries stay in single digits per
# factor; big ones have 36 digits, so a fixed 9-factor word reaches several
# hundred digits and a product of two stays far below the 4300-digit limit
SMALL_MULTIPLIERS = (-2, -1, 1, 2)
BIG_MULTIPLIER_DIGITS = 36
BIG_WORD_LENGTH = 9
SMALL_WORD_LENGTHS = (3, 8)


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def form(n: int) -> list[list[int]]:
    j = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        j[k][k + 1] = 1
        j[k + 1][k] = -1
    return j


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def covector_act(x: list[int], a: list[list[int]]) -> list[int]:
    return [sum(p * q for p, q in zip(x, col)) for col in zip(*a)]


def transvection_power(v: list[int], k: int) -> list[list[int]]:
    """Matrix of w -> w + k phi(v, w) v, symplectic for every integer v and k."""
    n = len(v)
    f = [0] * n  # f[j] = phi(v, e_j)
    for i in range(0, n, 2):
        f[i], f[i + 1] = -v[i + 1], v[i]
    return [[int(i == j) + k * v[i] * f[j] for j in range(n)] for i in range(n)]


def symplectic_inverse(a: list[list[int]]) -> list[list[int]]:
    """A^-1 = -J A^T J, confirmed by multiplying back."""
    n = len(a)
    j = form(n)
    neg_j = [[-e for e in row] for row in j]
    inv = matmul(matmul(neg_j, transpose(a)), j)
    if matmul(a, inv) != identity(n):
        raise ArithmeticError("reference inverse failed its check")
    return inv


def random_word(rng: random.Random, r: int, big: bool) -> list[list[int]]:
    """Product of transvection powers along random directions with entries in {-1, 0, 1}."""
    n = 2 * r
    if big:
        length = BIG_WORD_LENGTH
    else:
        length = rng.randint(*SMALL_WORD_LENGTHS)
    acc = identity(n)
    for _ in range(length):
        v = [0] * n
        while not any(v):
            v = [rng.randint(-1, 1) for _ in range(n)]
        if big:
            k = rng.randrange(10 ** (BIG_MULTIPLIER_DIGITS - 1), 10 ** BIG_MULTIPLIER_DIGITS)
            k = k if rng.random() < 0.5 else -k
        else:
            k = rng.choice(SMALL_MULTIPLIERS)
        acc = matmul(acc, transvection_power(v, k))
    j = form(n)
    if matmul(matmul(transpose(acc), j), acc) != j:
        raise ArithmeticError("generated word does not preserve the form")
    return acc


def refinement_value(psi: list[int], v: list[int]) -> int:
    """psi(v) = sum over pairs of a_i psi(u_i) + b_i psi(v_i) + a_i b_i, mod 2."""
    total = 0
    for i in range(0, len(psi), 2):
        a, b = v[i] & 1, v[i + 1] & 1
        total ^= (a & psi[i]) ^ (b & psi[i + 1]) ^ (a & b)
    return total


def principal_parity(psi: list[int], a: list[list[int]]) -> list[int]:
    """Mod-2 covector psi.A - psi, where (psi.A)(e_j) = psi(A e_j)."""
    return [refinement_value(psi, list(col)) ^ p for col, p in zip(zip(*a), psi)]


class Element:
    """Pair (x, A) with covector residues modulo `modulus` (0: integers)."""

    def __init__(self, modulus: int, x: list[int], a: list[list[int]]):
        self.modulus = modulus
        self.x = [c % modulus for c in x] if modulus else list(x)
        self.a = a

    def mul(self, other: "Element") -> "Element":
        x = [p + q for p, q in zip(covector_act(self.x, other.a), other.x)]
        return Element(self.modulus, x, matmul(self.a, other.a))

    def inverse(self) -> "Element":
        ai = symplectic_inverse(self.a)
        return Element(self.modulus, [-c for c in covector_act(self.x, ai)], ai)

    def document(self) -> dict:
        return {
            "r": len(self.x) // 2,
            "modulus": self.modulus,
            "x": [encode_int(c) for c in self.x],
            "A": [[encode_int(e) for e in row] for row in self.a],
        }


def encode_int(value: int):
    """Entries beyond 64 bits travel as decimal strings, as the CLI documents."""
    return value if INT64_MIN <= value <= INT64_MAX else str(value)


def random_element(rng: random.Random, r: int, modulus: int, big: bool,
                   psi: list[int], member: bool) -> Element:
    """Element whose x has the principal parity at psi, or one bit off it when not a member."""
    a = random_word(rng, r, big)
    parity = principal_parity(psi, a)
    if not member:
        parity[rng.randrange(2 * r)] ^= 1
    if modulus:
        noise = [rng.randrange(modulus // 2) for _ in parity]
    elif big:
        bound = 10 ** (BIG_MULTIPLIER_DIGITS * BIG_WORD_LENGTH)
        noise = [rng.randrange(-bound, bound) for _ in parity]
    else:
        noise = [rng.randint(-9, 9) for _ in parity]
    return Element(modulus, [b + 2 * t for b, t in zip(parity, noise)], a)
