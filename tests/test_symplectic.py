from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from symsplit.jacobi import random_member
from symsplit.quadratic import QuadraticRefinement
from symsplit.symplectic import (
    Covector,
    SymplecticMatrix,
    Vector,
    _identity_rows,
    _matmul,
    _pairs_as_basis,
    _preserves_form,
    _signed_transpose,
    _transpose,
    _word_steps,
    is_symplectic,
    neg_identity,
    phi_eval,
    random_symplectic_word,
    transvection,
    transvection_candidates,
)

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
    return _matmul(_matmul(_transpose(rows), j), rows) == j


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
        assert _preserves_form(rows) and _two_product_preserves_form(rows)
        i, j = rng.randrange(n), rng.randrange(n)
        # A + d e_i e_j^T changes phi(col_j, col_k) by +-d A[i^1][k]: it still
        # preserves the form iff row i^1 of A vanishes off column j
        stays = all(rows[i ^ 1][k] == 0 for k in range(n) if k != j)
        for d in (1, -1):
            bent = _bend(rows, i, j, d)
            assert _preserves_form(bent) == _two_product_preserves_form(bent) == stays
            rejected += not stays
    assert rejected > 100  # most perturbations must be rejected


def test_inverse_matches_signed_transpose_oracle():
    rng = random.Random(41)
    for r, a in _oracle_words(rng):
        j = _form_matrix(r)
        negj = tuple(tuple(-e for e in row) for row in j)
        assert a.inverse().rows == _matmul(_matmul(negj, _transpose(a.rows)), j)


def test_row_pairing_postcondition_matches_multiply_back():
    # A J A^T == J on the rows is the inverse postcondition; multiplying back is its definition
    rng = random.Random(47)
    rejected = 0
    for r, a in _oracle_words(rng):
        n = 2 * r
        for rows in (a.rows, *(_bend(a.rows, rng.randrange(n), rng.randrange(n), d) for d in (1, -1, 3))):
            multiply_back = _matmul(rows, _signed_transpose(rows)) == _identity_rows(n)
            assert _pairs_as_basis(rows) == multiply_back == _preserves_form(rows)
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


def test_public_construction_still_coerces():
    a = SymplecticMatrix([[True, 0], [False, 1]])
    assert a.rows == ((1, 0), (0, 1)) and all(type(e) is int for row in a.rows for e in row)
    with pytest.raises(ValueError):
        SymplecticMatrix([[1, 0], [0, 1], [0, 0]])


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
    for v, (k0, x0, k1, x1, coeffs) in zip(transvection_candidates(r), _word_steps(r)):
        assert x0 * Vector.unit(r, k0) + x1 * Vector.unit(r, k1) == v
        row = [sum(v.coords[k] * gram[k][j] for k in range(n)) for j in range(n)]
        assert coeffs == tuple((j, c) for j, c in enumerate(row) if c)
    for v in list(transvection_candidates(r)) + randoms:
        expected = []
        for i in range(n):
            expected.append(tuple(int(i == j) + sum(v.coords[i] * v.coords[k] * gram[k][j] for k in range(n))
                                  for j in range(n)))
        assert transvection(v).rows == tuple(expected)


def _word_by_products(r, length, rng):
    # the definition the column updates replace: candidate transvections multiplied under *
    candidates = transvection_candidates(r)
    acc = SymplecticMatrix.identity(r)
    for _ in range(length):
        acc = acc * transvection(rng.choice(candidates))
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


def test_word_length_and_rank_are_checked():
    with pytest.raises(ValueError):
        random_symplectic_word(2, -1, random.Random(0))
    with pytest.raises(ValueError):
        random_symplectic_word(0, 3, random.Random(0))
    # a non-integral length is refused, not a TypeError from range(); 3.0 is read as 3
    for bad in (2.5, float("nan"), float("inf"), "3", None):
        with pytest.raises(ValueError, match=rf"^word length must be an integer, got {re.escape(repr(bad))}$"):
            random_symplectic_word(2, bad, random.Random(0))
    assert random_symplectic_word(2, 3.0, random.Random(4)) == random_symplectic_word(2, 3, random.Random(4))


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
        for call in (lambda: Vector.unit(2, bad), lambda: Vector.u(2, bad), lambda: Vector.v(2, bad),
                     lambda: Covector.unit(2, bad, 4)):
            with pytest.raises(ValueError, match=r"^basis index out of range$"):
                call()
    assert Vector.unit(2, 1.0) == Vector.unit(2, 1) == Vector.v(2, 1.0) == Vector.v(2, True)
    assert Vector.u(2, 2.0) == Vector.unit(2, 2) and Covector.unit(2, 3.0, 4) == Covector.unit(2, 3, 4)
