from __future__ import annotations

import json
import random
import re
import sys
import warnings
from collections import Counter
from enum import IntEnum
from operator import add, sub
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from symsplit import symplectic
from symsplit.cli import main
from symsplit.jacobi import random_member
from symsplit.quadratic import QuadraticRefinement
from symsplit.symplectic import (
    Covector,
    SymplecticMatrix,
    Vector,
    _as_int_tuple,
    _identity_rows,
    _matmul,
    _pairs_as_basis,
    _pairs_as_basis_packed,
    _pairs_as_basis_paired,
    _pairs_as_basis_plain,
    _signed_transpose,
    _word_steps,
    is_symplectic,
    neg_identity,
    phi_eval,
    random_symplectic_word,
    transvection,
    transvection_candidates,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402  plain-int arithmetic that imports nothing from symsplit

ranks = st.integers(min_value=1, max_value=3)


@st.composite
def vector_pairs(draw, count=2):
    r = draw(ranks)
    vecs = [Vector(tuple(draw(st.integers(-9, 9)) for _ in range(2 * r))) for _ in range(count)]
    return (r, *vecs)


def test_phi_on_basis_pairs():
    assert phi_eval(Vector.u(1, 1), Vector.v(1, 1)) == 1
    assert phi_eval(Vector.v(1, 1), Vector.u(1, 1)) == -1
    assert phi_eval(Vector.u(2, 1), Vector.u(2, 2)) == 0
    assert phi_eval(Vector.u(2, 1), Vector.v(2, 2)) == 0


def test_phi_rank_mismatch():
    with pytest.raises(ValueError):
        phi_eval(Vector.u(1, 1), Vector.u(2, 1))


@settings(max_examples=80, deadline=None)
@given(vector_pairs(count=3), st.integers(-5, 5), st.integers(-5, 5))
def test_phi_antisymmetric_and_bilinear(vecs, a, b):
    _, v, w, z = vecs
    assert phi_eval(v, w) == -phi_eval(w, v)
    assert phi_eval(a * v + b * w, z) == a * phi_eval(v, z) + b * phi_eval(w, z)


def test_transvection_zero_vector_is_identity():
    assert transvection(Vector((0, 0, 0, 0))) == SymplecticMatrix.identity(2)


def test_transvection_hand_expanded_matrices():
    # columns are the images of u1 and v1, expanded by hand from w + phi(v,w) v
    assert transvection(Vector.u(1, 1)).rows == ((1, 1), (0, 1))
    assert transvection(Vector.u(1, 1) + Vector.v(1, 1)).rows == ((0, 1), (-1, 2))


@settings(max_examples=60, deadline=None)
@given(vector_pairs(count=2))
def test_transvection_is_symplectic_and_double_twist(vecs):
    _, v, w = vecs
    t = transvection(v)
    assert is_symplectic(t)
    # T_v T_v w = w + 2 phi(v, w) v
    expect = w + (2 * phi_eval(v, w)) * v
    assert t.apply(t.apply(w)) == expect


def test_is_symplectic_examples():
    assert is_symplectic(SymplecticMatrix.identity(1))
    assert not is_symplectic([[0, 1], [1, 0]])
    assert is_symplectic([[0, 1], [-1, 0]])


def test_is_symplectic_rejects_bad_shapes():
    with pytest.raises(ValueError):
        is_symplectic([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        is_symplectic([[1, 0], [0, 1], [0, 0]])


def test_constructor_rejects_non_symplectic():
    with pytest.raises(ValueError):
        SymplecticMatrix(((0, 1), (1, 0)))


def test_act_covector_identity_and_frozen_example():
    x = Covector((0, 1))
    assert x.act(SymplecticMatrix.identity(1)) == x
    # (x.A)(e_i) = x(A e_i) computed by hand: v1* is fixed by the twist at u1
    assert x.act(transvection(Vector.u(1, 1))).coords == (0, 1)


def test_act_covector_brute_force_oracle():
    rng = random.Random(11)
    for r in (1, 2, 3):
        for _ in range(20):
            a = random_symplectic_word(r, rng.randint(0, 8), rng)
            x = Covector(tuple(rng.randint(-9, 9) for _ in range(2 * r)))
            acted = x.act(a)
            for j in range(2 * r):
                assert acted.evaluate(Vector.unit(r, j)) == x.evaluate(a.apply(Vector.unit(r, j)))
    # sparse covectors (zero, unit, 0/1), which take the product's row-combining path
    for r in range(1, 7):
        n = 2 * r
        for m in (0, 2, 24):
            xs = [Covector.zero(r, m)] + [Covector.unit(r, j, m) for j in range(n)]
            xs += [Covector([rng.randint(0, 1) for _ in range(n)], m) for _ in range(6)]
            for a in (random_symplectic_word(r, 6, rng), random_symplectic_word(r, 12, rng),
                      neg_identity(r), SymplecticMatrix.identity(r)):
                for x in xs:
                    acted = x.act(a)
                    assert acted.modulus == m and type(acted.coords) is tuple
                    for j in range(n):
                        e = Vector.unit(r, j)
                        assert acted.evaluate(e) == acted.coords[j] == x.evaluate(a.apply(e))


def test_act_is_a_right_action():
    rng = random.Random(17)
    for r in (1, 2, 3):
        for m in (0, 2, 24):
            a = random_symplectic_word(r, rng.randint(0, 10), rng)
            b = random_symplectic_word(r, rng.randint(0, 10), rng)
            x = Covector(tuple(rng.randint(-20, 20) for _ in range(2 * r)), m)
            assert x.act(a).act(b) == x.act(a * b)


def test_act_rank_mismatch():
    with pytest.raises(ValueError):
        Covector((0, 1)).act(SymplecticMatrix.identity(2))
    with pytest.raises(TypeError):
        Covector((0, 1)).act(((1, 0), (0, 1)))


def test_reduce_covector_examples():
    assert Covector((4, 6)).reduce_to(24).coords == (4, 6)
    x = Covector((26, -2)).reduce_to(24)
    assert x.coords == (2, 22) and x.modulus == 24


def test_reduce_covector_rules():
    x24 = Covector((5, 7), 24)
    assert x24.reduce_to(12).coords == (5, 7)
    assert x24.reduce_to(2).coords == (1, 1)
    with pytest.raises(ValueError):
        x24.reduce_to(5)  # 5 does not divide 24
    with pytest.raises(ValueError):
        x24.reduce_to(0)  # lifting back to Z is not defined
    assert Covector((3, 4)).reduce_to(0) == Covector((3, 4))


def test_reduction_commutes_with_action():
    rng = random.Random(23)
    for _ in range(30):
        r = rng.randint(1, 3)
        a = random_symplectic_word(r, rng.randint(0, 8), rng)
        x = Covector(tuple(rng.randint(-30, 30) for _ in range(2 * r)))
        assert x.act(a).reduce_to(24) == x.reduce_to(24).act(a)


def test_mod2_reduction_is_compatible_with_bit_matrix_action():
    rng = random.Random(29)
    for _ in range(30):
        r = rng.randint(1, 3)
        a = random_symplectic_word(r, rng.randint(0, 8), rng)
        x = Covector(tuple(rng.randint(-9, 9) for _ in range(2 * r)))
        assert x.act(a).reduce_to(2) == x.reduce_to(2).act(a)


def test_neg_identity():
    n = neg_identity(1)
    assert n.rows == ((-1, 0), (0, -1))
    assert n * n == SymplecticMatrix.identity(1)
    assert is_symplectic(n)


def test_identity_cache_is_bounded():
    # a large identity is cached only until a few other dimensions are asked for
    _identity_rows.cache_clear()
    SymplecticMatrix.identity(1000)
    assert _identity_rows.cache_info().currsize == 1
    bound = _identity_rows.cache_info().maxsize
    assert bound is not None
    small = range(1, bound + 1)
    for r in small:
        SymplecticMatrix.identity(r)
    info = _identity_rows.cache_info()
    assert info.currsize == bound and info.misses == 1 + bound
    # every small dimension is still held, so the full cache has no room left for the 2000 rows
    for r in small:
        SymplecticMatrix.identity(r)
    assert _identity_rows.cache_info().hits == info.hits + bound


def test_inverse_round_trip():
    rng = random.Random(31)
    for r in (1, 2, 3):
        for _ in range(10):
            a = random_symplectic_word(r, rng.randint(0, 12), rng)
            assert a * a.inverse() == SymplecticMatrix.identity(r)
            assert a.inverse() * a == SymplecticMatrix.identity(r)


def _form_matrix(r):
    """Gram matrix J of the form: +1 at (2k, 2k+1), -1 at (2k+1, 2k)."""
    n = 2 * r
    return tuple(tuple(int(j == i + 1 and i % 2 == 0) - int(i == j + 1 and j % 2 == 0)
                       for j in range(n)) for i in range(n))


def _two_product_preserves_form(rows):
    """The check the column-pair kernel replaced: A^T J A == J by two full products."""
    j = _form_matrix(len(rows) // 2)
    return _matmul(_matmul(tuple(zip(*rows)), j), rows) == j


def _oracle_words(rng):
    """Seeded words at r <= 4, half of them with entries past 64 bits."""
    for r in (1, 2, 3, 4):
        for big in (False, True):
            for _ in range(12):
                a = random_symplectic_word(r, rng.randint(0, 10), rng)
                if big:
                    v = Vector(tuple(rng.randint(-(1 << 40), 1 << 40) for _ in range(2 * r)))
                    a = a * transvection(v) * random_symplectic_word(r, 3, rng)
                    assert max(abs(e) for row in a.rows for e in row) >= 1 << 64
                yield r, a


def _bend(rows, i, j, d):
    """A + d e_i e_j^T."""
    return tuple(tuple(e + d * (p == i and q == j) for q, e in enumerate(row))
                 for p, row in enumerate(rows))


def test_form_check_matches_two_product_oracle():
    rng = random.Random(37)
    rejected = 0
    for r, a in _oracle_words(rng):
        rows = a.rows
        n = 2 * r
        assert is_symplectic(rows) and _two_product_preserves_form(rows)
        i, j = rng.randrange(n), rng.randrange(n)
        # A + d e_i e_j^T changes phi(col_j, col_k) by +-d A[i^1][k]: it still
        # preserves the form iff row i^1 of A vanishes off column j
        stays = all(rows[i ^ 1][k] == 0 for k in range(n) if k != j)
        for d in (1, -1):
            bent = _bend(rows, i, j, d)
            assert is_symplectic(bent) == _two_product_preserves_form(bent) == stays
            rejected += not stays
    assert rejected > 100  # most perturbations must be rejected


def test_inverse_matches_signed_transpose_oracle():
    rng = random.Random(41)
    for r, a in _oracle_words(rng):
        j = _form_matrix(r)
        negj = tuple(tuple(-e for e in row) for row in j)
        assert a.inverse().rows == _matmul(_matmul(negj, tuple(zip(*a.rows))), j)


def _index_transpose(rows):
    """-J A^T J by its index formula, one entry at a time: the oracle of the slice-built kernel."""
    n = len(rows)
    return tuple([tuple([rows[j ^ 1][i ^ 1] if not (i + j) & 1 else -rows[j ^ 1][i ^ 1]
                         for j in range(n)]) for i in range(n)])


@pytest.mark.parametrize("n", [2, 4, 8, 12, 24, 100])
def test_signed_transpose_matches_the_index_formula(n):
    # any square matrix of even dimension, not only a symplectic one: the kernel only moves entries
    rng = random.Random(n)
    wide = 10 ** 100 + 7
    draws = {"narrow": lambda: rng.randint(-99, 99),
             "wide": lambda: rng.randint(-99, 99) * wide,
             "mixed widths": lambda: rng.randint(-99, 99) * rng.choice((1, 1 << 64, wide)),
             "mostly zeros": lambda: rng.choice((0, 0, 0, 1, -1, rng.randint(-99, 99)))}
    for name, draw in draws.items():
        for _ in range(3):
            rows = [tuple(draw() for _ in range(n)) for _ in range(n)]
            rows[rng.randrange(n)] = (0,) * n  # a zero row becomes a zero column
            rows = tuple(rows)
            got = _signed_transpose(rows)
            assert got == _index_transpose(rows), (name, rows)
            assert type(got) is tuple and {type(row) for row in got} == {tuple}
            assert {type(e) for row in got for e in row} == {int}


def test_row_pairing_postcondition_matches_multiply_back():
    # A J A^T == J on the rows is the inverse postcondition; multiplying back is its definition
    rng = random.Random(47)
    rejected = 0
    for r, a in _oracle_words(rng):
        n = 2 * r
        for rows in (a.rows, *(_bend(a.rows, rng.randrange(n), rng.randrange(n), d) for d in (1, -1, 3))):
            multiply_back = _matmul(rows, _signed_transpose(rows)) == _identity_rows(n)
            assert _pairs_as_basis(rows) == multiply_back == is_symplectic(rows)
            if multiply_back:
                assert SymplecticMatrix._trusted(rows).inverse().rows == _signed_transpose(rows)
            else:
                with pytest.raises(ArithmeticError):
                    SymplecticMatrix._trusted(rows).inverse()
            rejected += not multiply_back
    assert rejected > 150  # most perturbations must be rejected


def test_inverse_keeps_multiply_back_postcondition():
    unchecked = SymplecticMatrix._trusted(((2, 0), (0, 1)))  # det 2: not in Sp(2, Z)
    with pytest.raises(ArithmeticError):
        unchecked.inverse()
    word = random_symplectic_word(3, 12, random.Random(53))
    bent = SymplecticMatrix._trusted(_bend(word.rows, 4, 1, 1))
    assert not is_symplectic(bent)
    with pytest.raises(ArithmeticError):
        bent.inverse()


def test_internal_results_equal_validated_construction():
    rng = random.Random(43)
    for _, a in _oracle_words(rng):
        b = random_symplectic_word(a.rank, 5, rng)
        for c in (a * b, a.inverse(), SymplecticMatrix.identity(a.rank), neg_identity(a.rank)):
            assert c == SymplecticMatrix(c.rows)
            assert type(c.rows) is tuple and all(type(row) is tuple for row in c.rows)
            assert all(type(e) is int for row in c.rows for e in row)


def _product_by_loops(a, b):
    """AB by its definition: entry (i, j) is the sum over k of A_ik B_kj."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = 0
            for k in range(len(b)):
                total += a[i][k] * b[k][j]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def _rows_by_zero_count(n, counts, rng):
    """One row of n entries per zero count, the zeros at random places and the other
    entries drawn from 1, -1 and other values, some past 64 bits."""
    values = (1, -1, 1, -1, 2, -3, 7, (1 << 70) + 5, -(10 ** 30))
    rows = []
    for zeros in counts:
        nonzero = set(rng.sample(range(n), n - zeros))
        rows.append(tuple(rng.choice(values) if k in nonzero else 0 for k in range(n)))
    return tuple(rows)


def _product_operands(r, rng):
    """Square operands of size 2r for the product oracle."""
    n = 2 * r
    psi = QuadraticRefinement.zero(r)
    yield _identity_rows(n)
    yield _form_matrix(r)
    yield neg_identity(r).rows
    for length in (1, 3, 10):
        yield random_symplectic_word(r, length, rng).rows
        yield random_member(psi, 0, rng, word_length=length).a.rows
    yield tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
    yield tuple(tuple(rng.randint(-10 ** 300, 10 ** 300) for _ in range(n)) for _ in range(n))
    # every zero count from 0 (dense) to n (a zero row), so both sides of the sparse threshold
    yield _rows_by_zero_count(n, range(n), rng)
    yield _rows_by_zero_count(n, range(n, 0, -1), rng)
    # sparse rows led by -1, 5 or 1, then +-1 and other values: each first and each later term
    leads = ((-1, 1, -1, 5), (5, -1, 1, -1), (1, -1, 1, 3), (-1, -1, 7, 1))
    yield tuple(tuple(0 if k % 3 == 2 else leads[i % 4][k % 4] for k in range(n)) for i in range(n))
    # rows with one nonzero entry: 1 (B's row itself), -1 and another value
    yield tuple(tuple(rng.choice((1, -1, 5)) * (k == (i * 3) % n) for k in range(n)) for i in range(n))


@pytest.mark.parametrize("r", range(1, 9))
def test_product_matches_triple_loop_oracle(r):
    rng = random.Random(59 + r)
    operands = list(_product_operands(r, rng))
    for a in operands:
        for b in operands:
            got = _matmul(a, b)
            assert got == _product_by_loops(a, b)
            assert type(got) is tuple and all(type(row) is tuple for row in got)


@pytest.mark.parametrize("r", range(1, 9))
def test_product_by_identity_reuses_rows(r):
    # the sparse path: a row of A whose only nonzero entry is 1 at k is B's row k itself
    m = random_symplectic_word(r, 12, random.Random(61 + r))
    product = SymplecticMatrix.identity(r) * m
    assert all(product.rows[i] is m.rows[i] for i in range(2 * r))


def _phi_sum(w, v):
    """phi(w, v) by its definition: the sum over pairs of a_k b'_k - b_k a'_k."""
    return sum(w[2 * k] * v[2 * k + 1] - w[2 * k + 1] * v[2 * k] for k in range(len(w) // 2))


def _pairs_by_phi_sum(vectors):
    n = len(vectors)
    return all(_phi_sum(vectors[i], vectors[j]) == (j == i + 1 and i % 2 == 0)
               for i in range(n) for j in range(i + 1, n))


def _wide_word(r, rng, bits=400):
    """A seeded word times the transvection along a vector of `bits`-bit entries, itself times a word."""
    v = Vector(tuple(rng.choice((1, -1)) * rng.getrandbits(bits) for _ in range(2 * r)))
    return random_symplectic_word(r, 4, rng) * transvection(v) * random_symplectic_word(r, 4, rng)


def _block_triangular(r, rng, bits):
    """U(S) L(T) for random symmetric S and T of `bits`-bit entries: in the basis (u_1, ..., u_r,
    v_1, ..., v_r) it is [[I + ST, S], [T, I]], so a v-row and a v-column hold an identity block."""
    def symmetric():
        m = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                m[i][j] = m[j][i] = rng.choice((1, -1)) * rng.getrandbits(bits)
        return m
    s, t = symmetric(), symmetric()
    upper = [list(row) for row in _identity_rows(2 * r)]
    lower = [list(row) for row in _identity_rows(2 * r)]
    for i in range(r):
        for j in range(r):
            upper[2 * i][2 * j + 1] = s[i][j]
            lower[2 * i + 1][2 * j] = t[i][j]
    return SymplecticMatrix(upper) * SymplecticMatrix(lower)


def _reference_word(r, rng):
    """A wide word of the `arith` benchmark: entries of about 120 to 1070 bits at rank 6."""
    return tuple(map(tuple, reference.random_word(rng, r, True)))


def _form_check_inputs(r, rng):
    """Members, as rows and as columns, and each with one entry moved by +-1 or 3: narrow and
    wide, dense and sparse, with negative entries and with identity blocks; and a dense
    matrix of 1000-bit entries."""
    n = 2 * r
    for rows in (_identity_rows(n), neg_identity(r).rows, random_symplectic_word(r, 10, rng).rows,
                 _reference_word(r, rng), _wide_word(r, rng).rows, _block_triangular(r, rng, 800).rows):
        for vectors in (rows, tuple(zip(*rows))):
            yield vectors
            for d in (1, -1, 3):
                yield _bend(vectors, rng.randrange(n), rng.randrange(n), d)
    yield tuple(tuple(rng.randint(-10 ** 300, 10 ** 300) for _ in range(n)) for _ in range(n))


def _widest(vectors):
    return max(abs(e) for w in vectors for e in w)


def _packed_at_two_bounds(vectors):
    # exact for any bound on the entries: the tightest one and a looser one agree
    verdict = _pairs_as_basis_packed(vectors, _widest(vectors))
    assert _pairs_as_basis_packed(vectors, 3 * _widest(vectors) + 1) == verdict
    return verdict


_FORM_CHECK_PATHS = {"plain": _pairs_as_basis_plain, "paired": _pairs_as_basis_paired,
                     "packed": _packed_at_two_bounds}


@pytest.mark.parametrize("path", ["plain", "paired", "packed"])
@pytest.mark.parametrize("r", range(1, 7))
def test_both_form_check_paths_match_phi_sum(r, path):
    # each of the three kernels runs on narrow and wide inputs alike, whatever
    # `_pairs_as_basis` would choose
    kernel = _FORM_CHECK_PATHS[path]
    rng = random.Random(67 + r)
    verdicts = Counter()
    for vectors in _form_check_inputs(r, rng):
        verdict = kernel(vectors)
        assert verdict == _pairs_by_phi_sum(vectors)
        verdicts[verdict] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 10


@pytest.mark.parametrize("paired", [False, True], ids=["plain", "paired"])
@pytest.mark.parametrize("r", range(1, 7))
def test_both_product_paths_match_reference_matmul(monkeypatch, r, paired):
    monkeypatch.setattr(symplectic, "_pairing_pays", lambda x, y: paired)
    rng = random.Random(71 + r)
    operands = [*_product_operands(r, rng), _wide_word(r, rng).rows, _reference_word(r, rng)]
    for a in operands:
        for b in operands:
            assert _matmul(a, b) == tuple(map(tuple, reference.matmul(a, b)))
        # a one-row product, the covector action's, by every row of a
        for row in a:
            assert _matmul((row,), operands[-1]) == (tuple(reference.covector_act(row, operands[-1])),)


def _count_paired_calls(monkeypatch, names=("_pairs_as_basis_paired", "_winograd")):
    """Count the calls of the named kernels, by default the two paired ones, from here on."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(symplectic, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(symplectic, name, counted)
    return calls


def test_wide_rank_6_checks_and_products_take_the_paired_path(monkeypatch):
    rng = random.Random(73)
    wide_rows, narrow = _wide_word(6, rng).rows, random_symplectic_word(6, 12, rng)
    dense = tuple(tuple(rng.randint(-9, 9) for _ in range(12)) for _ in range(12))
    blocks = _block_triangular(6, rng, 800).rows
    pieces = [_wide_word(1, rng).rows for _ in range(6)]  # a wide rank-1 block per hyperbolic pair
    diagonal = tuple(tuple(pieces[i // 2][i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(12))
                     for i in range(12))
    calls = _count_paired_calls(monkeypatch)
    wide = SymplecticMatrix(wide_rows)  # the rows' form check
    assert calls == {"_pairs_as_basis_paired": 1}
    wide.inverse()  # no second check: the constructor's was the postcondition's
    assert is_symplectic(wide_rows) and calls == {"_pairs_as_basis_paired": 2}  # the columns'
    product = wide * wide
    assert calls["_winograd"] == 1
    assert product.rows == tuple(map(tuple, reference.matmul(wide_rows, wide_rows)))
    # a one-row product stays plain: pairing saves nothing on one row
    Covector(wide_rows[0]).act(wide)
    assert calls == {"_pairs_as_basis_paired": 2, "_winograd": 1}
    # narrow entries, dense or not, keep the plain paths
    SymplecticMatrix(narrow.rows).inverse()
    narrow * narrow
    _matmul(dense, dense)
    _pairs_as_basis(dense)
    # so do factors of unequal width, wide times narrow or times twice as wide: a + b is as
    # wide as its wider summand
    wider = _wide_word(6, rng, bits=1200).rows
    for a, b in ((wide_rows, dense), (dense, wide_rows), (wide_rows, wider), (wider, wide_rows)):
        assert _matmul(a, b) == tuple(map(tuple, reference.matmul(a, b)))
    # and the form checks of wide matrices with identity or zero blocks: a product by 0 or 1 is free
    assert all(_pairs_as_basis(vectors) for vectors in (blocks, tuple(zip(*blocks)), diagonal))
    assert calls == {"_pairs_as_basis_paired": 2, "_winograd": 1}


def _row_of_width(bits, narrow_entry=None):
    """Twelve entries of exactly `bits` bits, the last one of `narrow_entry` bits if given."""
    row = [(1 << (bits - 1)) + i for i in range(12)]
    if narrow_entry is not None:
        row[-1] = 1 << (narrow_entry - 1)
    return tuple(row)


@pytest.mark.parametrize("x, y, pays", [
    (_row_of_width(1000), _row_of_width(1000), True),
    (_row_of_width(1000), _row_of_width(990), True),
    (_row_of_width(1000), _row_of_width(500), False),  # the wider factor is twice as wide
    (_row_of_width(500), _row_of_width(1000), False),
    (_row_of_width(1000, narrow_entry=100), _row_of_width(1000), False),  # one nearly free product
    (_row_of_width(1000), _row_of_width(1000, narrow_entry=100), False),
    (_row_of_width(200), _row_of_width(1000), False),  # a narrow x, decided on its own row
], ids=["equal", "near", "half-width-y", "half-width-x", "narrow-entry-x", "narrow-entry-y", "narrow-x"])
def test_pairing_pays_on_crafted_rows(x, y, pays):
    assert symplectic._pairing_pays(x, y) is pays


def test_form_check_pairs_on_w0_and_w1_not_on_w0_alone(monkeypatch):
    # a wide w_0 with a narrow w_1 keeps the plain path; two wide ones take the paired one
    calls = _count_paired_calls(monkeypatch, names=("_pairs_as_basis_paired",))
    units = _identity_rows(12)
    _pairs_as_basis((_row_of_width(1000), *units[1:]))
    assert calls == {}
    _pairs_as_basis((_row_of_width(1000), _row_of_width(1000), *units[2:]))
    assert calls == {"_pairs_as_basis_paired": 1}


_KERNELS = ("_pairs_as_basis_plain", "_pairs_as_basis_packed", "_pairs_as_basis_paired")


def _path_counter(monkeypatch):
    """A function giving the one form-check kernel a call of check(*args) ran, and its result."""
    calls = _count_paired_calls(monkeypatch, _KERNELS)

    def path(check, *args):
        calls.clear()
        result = check(*args)
        ((name, count),) = calls.items()
        assert count == 1
        return name.removeprefix("_pairs_as_basis_"), result
    return path


def test_form_check_path_follows_dimension_and_width(monkeypatch):
    # narrow 2r >= 8 packs, narrow 2r <= 6 and mid-width entries stay plain, wide entries pair,
    # and packing comes first where pairing would pay too (2r = 60, entries of about 110 bits);
    # the constructor, is_symplectic and the inverse postcondition all choose the same way
    rng = random.Random(101)
    path = _path_counter(monkeypatch)
    mid = _wide_word(6, rng, bits=100).rows
    assert 128 < _widest(mid).bit_length() < 320
    both = _wide_word(30, rng, bits=55).rows
    assert _widest(both).bit_length() <= 128 and symplectic._pairing_pays(both[0], both[1])
    cases = [(random_symplectic_word(r, 12, rng).rows, "packed" if r >= 4 else "plain")
             for r in (1, 2, 3, 4, 6)]
    cases += [(mid, "plain"), (_wide_word(6, rng).rows, "paired"), (both, "packed")]
    for rows, want in cases:
        for check in (SymplecticMatrix, is_symplectic, lambda rows: SymplecticMatrix._trusted(rows).inverse()):
            assert path(check, rows)[0] == want, (len(rows), want)


@pytest.mark.parametrize("n", [8, 12, 100])
def test_packed_form_check_at_the_widest_entries_it_admits(monkeypatch, n):
    # a transvection along (a, b, 64-bit values, 0) has entries a * b and the like: 128 bits
    # with a = b = 2^64 - 1, 129 with a = 2^64 (a * a); the zero coordinate leaves a narrow
    # entry in every row, so no row pairs
    rng = random.Random(103 + n)
    path = _path_counter(monkeypatch)
    top = (1 << 64) - 1
    rest = [rng.getrandbits(64) for _ in range(n - 3)]
    widest = transvection(Vector((top, top, *rest, 0))).rows
    wider = transvection(Vector((top + 1, top, *rest, 0))).rows
    assert _widest(widest).bit_length() == 128 and _widest(wider).bit_length() == 129
    # rows 2 and 3 pair to n M^2 for M = 2^128 - 1, the largest value a packed field must hold
    m = (1 << 128) - 1
    units = _identity_rows(n)
    extreme = (*units[:2], (m,) * n, (-m, m) * (n // 2), *units[4:])
    for vectors, want in ((widest, "packed"), (wider, "plain")):
        inputs = [vectors, tuple(zip(*vectors))]
        inputs += [_bend(vectors, rng.randrange(n), rng.randrange(n), d) for d in (1, -1)]
        if want == "packed":
            inputs.append(extreme)
        for k, vs in enumerate(inputs):
            taken, verdict = path(_pairs_as_basis, vs)
            assert taken == want and verdict == _pairs_by_phi_sum(vs) == (k < 2), (k, want)


def _wide_document_off_by_one(tmp_path):
    """A wide rank-6 element document of the `arith` benchmark, and a copy with one entry
    of its matrix moved by 1."""
    rng = random.Random(79)
    doc = reference.random_element(rng, 6, 0, True, [0] * 12, True).document()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    doc["A"][3][7] = str(int(doc["A"][3][7]) + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return str(good), str(bad)


def test_wide_document_off_by_one_is_refused(tmp_path, capsys, monkeypatch):
    good, bad = _wide_document_off_by_one(tmp_path)
    calls = _count_paired_calls(monkeypatch)
    assert main(["mul", "--lhs", good, "--rhs", good]) == 0
    capsys.readouterr()
    for argv in (["mul", "--lhs", bad, "--rhs", good], ["mul", "--lhs", good, "--rhs", bad],
                 ["inv", "--lhs", bad]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: matrix does not preserve the hyperbolic form\n")
    # every document read was form-checked on the paired path (2 for the good product, then
    # 1, 2 and 1), and the good product was paired too
    assert calls == {"_pairs_as_basis_paired": 6, "_winograd": 1}


def test_each_matrix_is_form_checked_once(tmp_path, capsys, monkeypatch):
    rows = random_symplectic_word(3, 12, random.Random(97)).rows
    calls = _count_paired_calls(monkeypatch, ("_pairs_as_basis", "_pairs_as_basis_paired"))
    checked = SymplecticMatrix(rows)
    assert calls == {"_pairs_as_basis": 1}
    checked.inverse()  # the constructor checked the postcondition's predicate on these rows
    assert calls == {"_pairs_as_basis": 1}
    SymplecticMatrix._trusted(rows).inverse()
    assert calls == {"_pairs_as_basis": 2}
    # a good wide document: `inv` form-checks its matrix once, `mul` each operand once
    good, _ = _wide_document_off_by_one(tmp_path)
    assert main(["inv", "--lhs", good]) == 0
    assert calls == {"_pairs_as_basis": 3, "_pairs_as_basis_paired": 1}
    assert main(["mul", "--lhs", good, "--rhs", good]) == 0
    assert calls == {"_pairs_as_basis": 5, "_pairs_as_basis_paired": 3}
    capsys.readouterr()


def _producer_outputs(r, rng, wide):
    """The output of every `_trusted` producer at rank r, on narrow or on wide inputs."""
    bits = 400 if wide else 3
    v = Vector(tuple(rng.choice((1, -1)) * rng.getrandbits(bits) for _ in range(2 * r)))
    word = random_symplectic_word(r, 40 if wide else 8, rng)
    a = word * transvection(v) * random_symplectic_word(r, 4, rng) if wide else word
    b = random_symplectic_word(r, 6, rng)
    yield SymplecticMatrix.identity(r)
    yield neg_identity(r)
    yield transvection(v)
    yield word
    for x, y in ((a, b), (b, a), (a, a), (a, neg_identity(r))):
        yield x * y
    for x in (a, b, a * b):
        yield x.inverse()  # an unchecked matrix: the postcondition ran
        yield SymplecticMatrix(x.rows).inverse()  # a checked one: nothing ran
        yield x.inverse().inverse()


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
@pytest.mark.parametrize("r", range(1, 9))
def test_every_trusted_producer_passes_the_public_constructor(r, wide):
    # `inverse` form-checks only matrices the public constructor did not build, so these
    # producers' outputs are checked here; the postcondition is a backstop for them
    outputs = list(_producer_outputs(r, random.Random(89 * r + wide), wide))
    assert len(outputs) == 17
    for out in outputs:
        assert not hasattr(out, "_checked") and SymplecticMatrix(out.rows) == out
    if wide:
        assert max(abs(e) for e in outputs[-1].rows[0]).bit_length() > 400


def test_inverse_of_wide_trusted_non_member_raises(monkeypatch):
    rows = _reference_word(6, random.Random(83))
    bent = SymplecticMatrix._trusted(_bend(rows, 3, 7, 1))
    calls = _count_paired_calls(monkeypatch)
    with pytest.raises(ArithmeticError, match="^inverse postcondition failed$"):
        bent.inverse()
    assert calls == {"_pairs_as_basis_paired": 1}
    assert _pairs_as_basis_paired(rows) and not _pairs_as_basis_paired(_bend(rows, 3, 7, 1))


def test_public_construction_still_coerces():
    a = SymplecticMatrix([[True, 0], [False, 1]])
    assert a.rows == ((1, 0), (0, 1)) and all(type(e) is int for row in a.rows for e in row)
    with pytest.raises(ValueError):
        SymplecticMatrix([[1, 0], [0, 1], [0, 0]])


def test_rows_of_mixed_integral_types_are_read_as_exact_ints(monkeypatch):
    # bool, IntEnum and integral float entries fail the whole-matrix type pass and are coerced
    # row by row, to the same exact ints; a non-integral entry is refused with its own repr
    ints = transvection(Vector((1, -3, 0, 7))).rows
    kinds = {1: True, 0: _Small.ZERO, -3: _Small.MINUS_THREE, 7: _Small.SEVEN}
    mixed = [[kinds.get(e, float(e)) for e in row] for row in ints]
    assert {type(e) for row in mixed for e in row} == {bool, _Small, float}
    a = SymplecticMatrix(mixed)
    assert a.rows == ints and {type(e) for row in a.rows for e in row} == {int}
    b = SymplecticMatrix([[True, False], [0, 1]])  # bools and ints only
    assert b.rows == ((1, 0), (0, 1)) and {type(e) for row in b.rows for e in row} == {int}
    checked = []
    form_check = symplectic._pairs_as_basis

    def spy(vectors):
        vectors = tuple(vectors)
        checked.extend(vectors)
        return form_check(vectors)

    monkeypatch.setattr(symplectic, "_pairs_as_basis", spy)
    assert is_symplectic(mixed) and is_symplectic(ints)
    assert checked == [*zip(*ints)] * 2 and {type(e) for col in checked for e in col} == {int}
    assert not is_symplectic([[2.0, _Small.ZERO], [False, True]])
    for bad in (2.5, "3"):
        for rows in ([[bad, True], [_Small.ZERO, 1.0]], [[1, 0], [0.0, bad]]):
            for call in (SymplecticMatrix, is_symplectic):
                with pytest.raises(ValueError, match=rf"^entries must be integers, got {re.escape(repr(bad))}$"):
                    call(rows)


def test_random_symplectic_contract():
    assert random_symplectic_word(2, 0, random.Random(9)) == SymplecticMatrix.identity(2)
    a = random_symplectic_word(2, 20, random.Random(9))
    b = random_symplectic_word(2, 20, random.Random(9))
    assert a == b
    assert is_symplectic(a)
    assert random_symplectic_word(2, 20, random.Random(10)) != a  # overwhelmingly likely, fixed seeds


def _gram(r):
    # J written out: phi(e_2k, e_2k+1) = 1 and phi(e_2k+1, e_2k) = -1, every other pairing 0
    n = 2 * r
    return [[(j == i + 1 and i % 2 == 0) - (i == j + 1 and j % 2 == 0) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("r", range(1, 5))
def test_form_signs_match_explicit_gram_matrix(r):
    # phi_eval, the word steps and transvection against v^T J w and I + v v^T J, by plain loops
    rng = random.Random(r)
    n, gram = 2 * r, _gram(r)
    randoms = [Vector([rng.randint(-9, 9) for _ in range(n)]) for _ in range(10)]
    for v, w in zip(randoms, randoms[1:]):
        assert phi_eval(v, w) == sum(v.coords[k] * gram[k][j] * w.coords[j]
                                     for k in range(n) for j in range(n))
    for v, ((a, op, b), updates) in zip(transvection_candidates(r), _word_steps(r)):
        # the direction is e_a op e_b, or e_a alone; an update (j, add | sub) is phi(v, e_j) = +1 | -1
        assert op in (add, sub) or (op is None and b == a)
        ea, eb = Vector.unit(r, a), Vector.unit(r, b)
        assert (ea if op is None else ea + eb if op is add else ea - eb) == v
        row = [sum(v.coords[k] * gram[k][j] for k in range(n)) for j in range(n)]
        assert all(f in (add, sub) for _, f in updates)
        assert tuple((j, 1 if f is add else -1) for j, f in updates) == tuple((j, c) for j, c in enumerate(row) if c)
    for v in list(transvection_candidates(r)) + randoms:
        expected = []
        for i in range(n):
            expected.append(tuple(int(i == j) + sum(v.coords[i] * v.coords[k] * gram[k][j] for k in range(n))
                                  for j in range(n)))
        assert transvection(v).rows == tuple(expected)


@pytest.mark.parametrize("r", range(1, 5))
def test_word_directions_keep_their_order(r):
    # rng.choices draws each step of a word by its index, so this order fixes every seeded word
    us = [Vector.u(r, i) for i in range(1, r + 1)]
    vs = [Vector.v(r, i) for i in range(1, r + 1)]
    expected = us + vs + [u + v for u in us for v in vs] + [u - v for u in us for v in vs]
    assert list(transvection_candidates(r)) == expected


def _word_by_products(r, length, rng):
    # the definition the column updates replace: candidate transvections multiplied under *
    candidates = transvection_candidates(r)
    acc = SymplecticMatrix.identity(r)
    for v in rng.choices(candidates, k=length):
        acc = acc * transvection(v)
    return acc


@pytest.mark.parametrize("r", range(1, 7))
def test_word_column_updates_match_transvection_products(r):
    for length in range(26):
        for seed in range(24 if r <= 3 else 8):
            fast_rng, slow_rng = random.Random(1000 * seed + length), random.Random(1000 * seed + length)
            word = random_symplectic_word(r, length, fast_rng)
            assert word.rows == _word_by_products(r, length, slow_rng).rows
            assert type(word.rows) is tuple and all(type(row) is tuple for row in word.rows)
            assert all(type(e) is int for row in word.rows for e in row)
            assert is_symplectic(word)
            assert fast_rng.random() == slow_rng.random()  # the generator advanced identically


def test_empty_word_builds_no_step_table():
    # the step table of rank 100 takes about 0.4 s and 6 MB; the empty word needs none of it
    rng = random.Random(5)
    state, cached = rng.getstate(), _word_steps.cache_info().currsize
    assert random_symplectic_word(100, 0, rng) == SymplecticMatrix.identity(100)
    assert _word_steps.cache_info().currsize == cached
    assert rng.getstate() == state


def test_word_length_and_rank_are_checked():
    with pytest.raises(ValueError, match=r"^rank must be a positive integer, got 0$"):
        random_symplectic_word(0, 3, random.Random(0))
    # a negative or non-integral length is refused, not a TypeError from range(); 3.0 is read as 3
    psi = QuadraticRefinement.zero(2)
    for bad in (-1, 2.5, float("nan"), float("inf"), "3", None):
        message = rf"^word length must be a non-negative integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            random_symplectic_word(2, bad, random.Random(0))
        # random_member checks its bound before drawing (randint used to warn on 3.0, raise TypeError on "3")
        with pytest.raises(ValueError, match=message):
            random_member(psi, 24, random.Random(0), word_length=bad)
    assert random_symplectic_word(2, 3.0, random.Random(4)) == random_symplectic_word(2, 3, random.Random(4))
    # so is its modulus, which randrange used to read with a warning (24.0) or a TypeError ("24")
    for bad in (2.5, "24", None, -24):
        message = rf"^modulus must be a non-negative integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            random_member(psi, bad, random.Random(0))
    # an odd modulus has no refinement subgroup: refused before any draw, as membership refuses it
    for odd in (1, 3, 25, 3.0):
        rng = random.Random(0)
        with pytest.raises(ValueError, match=r"^membership needs modulus 0 or even$"):
            random_member(QuadraticRefinement.zero(1), odd, rng)
        assert rng.random() == random.Random(0).random()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert random_member(psi, 24, random.Random(4), 3.0) == random_member(psi, 24, random.Random(4), 3)
        assert random_member(psi, 24.0, random.Random(4)) == random_member(psi, 24, random.Random(4))


def test_candidate_directions():
    cands = transvection_candidates(2)
    assert len(cands) == 2 * 2 + 2 * 2 * 2
    assert Vector.u(2, 1) in cands and Vector.v(2, 2) in cands
    assert (Vector.u(2, 1) + Vector.v(2, 2)) in cands
    assert (Vector.u(2, 2) - Vector.v(2, 1)) in cands


def test_exactness_beyond_word_size():
    # entries past 64 bits must stay exact
    k = 1 << 40
    t = transvection(Vector((k, 0)))
    assert t.rows == ((1, k * k), (0, 1))
    assert t * t.inverse() == SymplecticMatrix.identity(1)
    x = Covector((1, 0)).act(t)
    assert x.coords == (1, k * k)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        SymplecticMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # ragged rows, even where the rows present would pass the form check, and no rows at all
    for rows in ([[1, 0], [0, 1, 0]], [[1, 0, 0], [0, 1]], [[1, 0], [0]], [[1, 0], []], [],
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0]]):
        for call in (SymplecticMatrix, is_symplectic):
            with pytest.raises(ValueError, match="^matrix must be square of even dimension$"):
                call(rows)
    with pytest.raises(ValueError):
        Vector((1, 2, 3))
    with pytest.raises(ValueError):
        Covector((1, 2, 3))
    with pytest.raises(ValueError):
        Covector((1, 2), -3)


_BIG = 10 ** 299 + 12345  # 300 digits


def _assert_equal_to_public(got, want):
    assert got == want and hash(got) == hash(want)
    assert type(got.coords) is tuple and all(type(c) is int for c in got.coords)
    assert type(got.modulus) is int
    if got.modulus:
        assert all(0 <= c < got.modulus for c in got.coords)


@pytest.mark.parametrize("m", [0, 2, 24, 240])
def test_internal_covectors_equal_public_construction(m):
    rng = random.Random(m)
    entries = (-_BIG, _BIG, -_BIG - 1, -7, -1, 0, 5, 239, 241)
    for r in (1, 2, 3):
        n = 2 * r
        big = random_symplectic_word(r, 6, rng) * transvection(Vector((_BIG,) + (1,) * (n - 1)))
        for a in (random_symplectic_word(r, 10, rng), big, neg_identity(r)):
            x = Covector([rng.choice(entries) for _ in range(n)], m)
            y = Covector([rng.choice(entries) for _ in range(n)], m)
            acted = [sum(x.coords[i] * a.rows[i][j] for i in range(n)) for j in range(n)]
            _assert_equal_to_public(x.act(a), Covector(acted, m))
            _assert_equal_to_public(x + y, Covector([p + q for p, q in zip(x.coords, y.coords)], m))
            _assert_equal_to_public(x - y, Covector([p - q for p, q in zip(x.coords, y.coords)], m))
            _assert_equal_to_public(-x, Covector([-p for p in x.coords], m))
            for k in (0, 2, 4, 24, 240):
                if m == 0 or (k and m % k == 0):
                    _assert_equal_to_public(x.reduce_to(k), Covector(x.coords, k))


def test_public_covector_construction_still_coerces_and_checks():
    x = Covector((True, 2.0), 24)
    assert x.coords == (1, 2) and all(type(c) is int for c in x.coords)
    assert Covector((-1, 25), 24).coords == (23, 1)
    assert Covector((-_BIG, _BIG), 0).coords == (-_BIG, _BIG)
    y = Covector((3, 4), True)
    assert y.modulus == 1 and type(y.modulus) is int and y.coords == (0, 0)
    for coords, m in (((1, 2, 3), 0), ((), 24), ((1, 2), -3)):
        with pytest.raises(ValueError):
            Covector(coords, m)
    with pytest.raises(ValueError):
        Covector(("a", 0))
    with pytest.raises(TypeError):
        Covector((None, 0))


class _Small(IntEnum):
    MINUS_THREE = -3
    ZERO = 0
    SEVEN = 7


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(), st.booleans(), st.sampled_from(_Small),
                          st.integers(-(1 << 60), 1 << 60).map(float)), max_size=12),
       st.sampled_from([2.5, float("nan"), "3"]))
def test_int_tuple_holds_exact_ints_equal_to_int_of_each_value(values, bad):
    got = _as_int_tuple(values)
    assert got == tuple([int(v) for v in values]) and all(type(e) is int for e in got)
    assert _as_int_tuple(got) is got  # exact ints already: the tuple itself
    with pytest.raises(ValueError, match=rf"^entries must be integers, got {re.escape(repr(bad))}$"):
        _as_int_tuple([*values, bad])


def test_non_integral_entries_are_refused():
    # int() used to truncate them: a 1.7 entry made this shear the identity, 2.5 became 2
    bad_values = (1.7, 2.5, -0.5, float("inf"), float("-inf"), float("nan"), "3")
    for bad in bad_values:
        message = rf"^entries must be integers, got {re.escape(repr(bad))}$"
        for call in (lambda: SymplecticMatrix(((bad, 0), (0, 1))),
                     lambda: SymplecticMatrix(((1, 0), (bad, 1))),
                     lambda: is_symplectic(((1, bad), (0, 1))),
                     lambda: Covector((bad, 1)), lambda: Covector((0, bad), 24),
                     lambda: Vector((1, bad))):
            with pytest.raises(ValueError, match=message):
                call()
    # integral values of other numeric types are still read as ints
    shear = SymplecticMatrix(((1.0, True), (0, 1)))
    assert shear.rows == ((1, 1), (0, 1)) and all(type(v) is int for row in shear.rows for v in row)
    assert Vector((2.0, -0.0)).coords == (2, 0)
    # so are non-integral basis indices: 1.5 used to give the zero vector, or v_1 from Vector.u
    for bad in (1.5, 0.5, float("nan"), float("inf"), "1", None):
        for call, message in ((lambda: Vector.unit(2, bad), "basis index must lie in 0..3"),
                              (lambda: Covector.unit(2, bad, 4), "basis index must lie in 0..3"),
                              (lambda: Vector.u(2, bad), "pair index must lie in 1..2"),
                              (lambda: Vector.v(2, bad), "pair index must lie in 1..2")):
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}, got {re.escape(repr(bad))}$"):
                call()
    assert Vector.unit(2, 1.0) == Vector.unit(2, 1) == Vector.v(2, 1.0) == Vector.v(2, True)
    assert Vector.u(2, 2.0) == Vector.unit(2, 2) and Covector.unit(2, 3.0, 4) == Covector.unit(2, 3, 4)
    # a column index too: -1 used to give the last column and 1.5 raised TypeError
    for bad in (-1, 2, 1.5, "0", None):
        with pytest.raises(ValueError, match=rf"^column index must lie in 0\.\.1, got {re.escape(repr(bad))}$"):
            shear.column(bad)
    assert shear.column(1.0) == shear.column(1) == Vector((1, 1))
    # a modulus or scalar is refused too: Covector((3, 5), 2.5) used to be a mod-2 covector,
    # reduce_to(2.9) reduced mod 2, "3" was read as 3, and 2.5 * v was 2 * v
    x = Covector((3, 5), 24)
    for bad in (2.5, "3", None, float("nan"), float("inf"), -3):
        message = rf"^modulus must be a non-negative integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Covector((3, 5), bad)
        with pytest.raises(ValueError, match=message):
            x.reduce_to(bad)
    with pytest.raises(ValueError, match=r"^modulus must be a non-negative integer, got 2\.9$"):
        x.reduce_to(2.9)
    for bad in (2.5, "3", None, float("nan")):
        with pytest.raises(ValueError, match=rf"^scalar must be an integer, got {re.escape(repr(bad))}$"):
            bad * Vector((1, 1))
    # a package value object on the left is no scalar: Python's TypeError for unsupported operands
    for left in (SymplecticMatrix.identity(1), Vector((0, 1)), Covector((1, 0)), x):
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*"):
            left * Vector((1, 0))
    assert Covector((3, 5), 24.0) == Covector((3, 5), 24) and type(Covector((3, 5), 24.0).modulus) is int
    assert x.reduce_to(3.0) == x.reduce_to(3) and 3.0 * Vector((1, 2)) == Vector((3, 6))
    assert type(x.reduce_to(3.0).modulus) is int
