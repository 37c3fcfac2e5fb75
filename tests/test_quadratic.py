from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from symsplit import quadratic
from symsplit.cocycles import principal_at
from symsplit.jacobi import JacobiElement, gamma_psi_member, splits
from symsplit.quadratic import (
    QuadraticRefinement,
    _bits_of,
    _closure_steps,
    _generators,
    _orbit_bitset,
    _pair_mask,
    _state_of,
    arf,
    enumerate_refinements,
    expected_orbit_sizes,
    is_group_fixed,
    orbit_decomposition,
    qact,
    qdifference,
    qeval,
    qtranslate,
)
from symsplit.symplectic import (
    Covector,
    Vector,
    neg_identity,
    random_symplectic_word,
    transvection,
    transvection_candidates,
)


def _oracle_table(basis_values):
    """All values of the refinement, forced one coordinate at a time.

    Uses only the basis values and the identity psi(x + e_i) = psi(x) +
    psi(e_i) + phibar(e_i, x) for x supported away from i, so it is independent
    of the closed evaluation formula under test.  Index i of the mask is the
    i-th coordinate of the vector.
    """
    n = len(basis_values)
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        partner = i + 1 if i % 2 == 0 else i - 1
        table[mask] = table[rest] ^ basis_values[i] ^ ((rest >> partner) & 1)
    return table


def _mask_of(coords):
    return sum((c & 1) << i for i, c in enumerate(coords))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_qeval_matches_recursive_oracle(r):
    for psi in enumerate_refinements(r):
        table = _oracle_table(psi.basis_values)
        for coords in product((0, 1), repeat=2 * r):
            assert qeval(psi, Vector(coords)) == table[_mask_of(coords)]


def test_qeval_depends_only_on_parity():
    psi = QuadraticRefinement((1, 0, 1, 1))
    assert qeval(psi, Vector((3, -2, 7, 5))) == qeval(psi, Vector((1, 0, 1, 1)))


def test_qeval_rank_mismatch():
    with pytest.raises(ValueError):
        qeval(QuadraticRefinement((0, 0)), Vector((0, 0, 0, 0)))


def test_refinement_validation_and_classmethods():
    with pytest.raises(ValueError):
        QuadraticRefinement(())
    with pytest.raises(ValueError):
        QuadraticRefinement((1, 0, 1))
    assert QuadraticRefinement((2, 3)).basis_values == (0, 1)
    # non-integral values are refused, not truncated to a parity (2.5 used to count as 0)
    for bad in (2.5, 1.5, float("inf"), float("nan"), "1"):
        with pytest.raises(ValueError, match=r"^entries must be integers, got "):
            QuadraticRefinement((0, bad))
    assert QuadraticRefinement((3.0, True)).basis_values == (1, 1)
    assert QuadraticRefinement.zero(2).basis_values == (0, 0, 0, 0)
    assert QuadraticRefinement.arf_one(2).basis_values == (0, 0, 1, 1)
    assert arf(QuadraticRefinement.arf_one(3)) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.data())
def test_refinement_identity(r, data):
    bits = st.tuples(*[st.integers(0, 1)] * (2 * r))
    psi = QuadraticRefinement(data.draw(bits))
    v = Vector(data.draw(bits))
    w = Vector(data.draw(bits))
    phibar = sum(v.coords[2 * k] * w.coords[2 * k + 1]
                 + v.coords[2 * k + 1] * w.coords[2 * k] for k in range(r)) % 2
    assert qeval(psi, v + w) == (qeval(psi, v) ^ qeval(psi, w) ^ phibar)


def test_qact_frozen_example():
    # the twist at u1 swaps psi(v1) across the refinement identity:
    # (psi.T)(v1) = psi(u1 + v1) = psi(u1) + psi(v1) + 1
    psi = QuadraticRefinement((0, 0))
    assert qact(psi, transvection(Vector.u(1, 1))).basis_values == (0, 1)


def test_qact_is_evaluation_on_columns():
    rng = random.Random(5)
    for r in (1, 2, 3):
        for _ in range(15):
            a = random_symplectic_word(r, rng.randint(0, 8), rng)
            psi = QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))
            acted = qact(psi, a)
            for j in range(2 * r):
                assert acted.basis_values[j] == qeval(psi, a.column(j))


def _qact_by_columns(psi, a):
    """qact before packing: qeval on each column."""
    return QuadraticRefinement(tuple(qeval(psi, a.column(j)) for j in range(2 * psi.rank)))


def _test_matrices(r, rng):
    """Seeded words with small entries, -Id, and words with negative entries of 300 digits and more."""
    mats = [random_symplectic_word(r, rng.randint(0, 10), rng) for _ in range(6)]
    mats.append(neg_identity(r))
    for _ in range(3):
        huge = Vector(tuple(rng.randint(-10 ** 300, 10 ** 300) for _ in range(2 * r)))
        mats.append(random_symplectic_word(r, 4, rng) * transvection(huge)
                    * random_symplectic_word(r, 4, rng))
    entries = [e for a in mats for row in a.rows for e in row]
    assert min(entries) < 0 and max(len(str(abs(e))) for e in entries) >= 300
    return mats


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_packed_qact_matches_column_oracle(r):
    # qact, principal_at and gamma_psi_member against psi.A built by qeval on each
    # column and psi.A - psi as qdifference of objects: every psi at r <= 2
    rng = random.Random(100 + r)
    if r <= 2:
        psis = enumerate_refinements(r)
    else:
        psis = [QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))
                for _ in range(12)]
    big = 10 ** 299 + 7  # 300 digits
    for a in _test_matrices(r, rng):
        for psi in psis:
            acted = _qact_by_columns(psi, a)
            assert qact(psi, a) == acted
            xbar = qdifference(acted, psi)
            got = principal_at(psi, a)
            assert got == xbar and hash(got) == hash(xbar)
            # a member lifts xbar by even noise; flipping one parity makes a non-member
            x = [b + 2 * rng.choice((-big, -5, 0, 3, big)) for b in xbar.coords]
            j = rng.randrange(2 * r)
            flipped = x[:j] + [x[j] + rng.choice((-1, 1))] + x[j + 1:]
            for m in (0, 24):
                assert gamma_psi_member(JacobiElement(Covector(x, m), a), psi)
                assert not gamma_psi_member(JacobiElement(Covector(flipped, m), a), psi)


def test_qact_right_action_law():
    rng = random.Random(7)
    for r in (1, 2, 3):
        for _ in range(15):
            a = random_symplectic_word(r, rng.randint(0, 8), rng)
            b = random_symplectic_word(r, rng.randint(0, 8), rng)
            psi = QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))
            assert qact(qact(psi, a), b) == qact(psi, a * b)


def test_qact_ignores_signs():
    psi = QuadraticRefinement((1, 0, 0, 1))
    assert qact(psi, neg_identity(2)) == psi


def test_qact_type_and_rank_errors():
    psi = QuadraticRefinement((0, 0))
    with pytest.raises(TypeError):
        qact(psi, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        qact(psi, transvection(Vector.u(2, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_translate_difference_round_trip(r, data):
    bits = st.tuples(*[st.integers(0, 1)] * (2 * r))
    psi0 = QuadraticRefinement(data.draw(bits))
    psi1 = QuadraticRefinement(data.draw(bits))
    xbar = Covector(data.draw(bits), 2)
    assert qdifference(qtranslate(psi0, xbar), psi0) == xbar
    assert qtranslate(psi0, qdifference(psi1, psi0)) == psi1


def test_difference_of_refinements_of_different_rank_is_refused():
    # without the guard the XOR of the states would read as a covector of the first rank
    psi2, psi1 = QuadraticRefinement.arf_one(2), QuadraticRefinement.arf_one(1)
    for a, b in ((psi2, psi1), (psi1, psi2)):
        with pytest.raises(ValueError, match="^rank mismatch$"):
            qdifference(a, b)


def test_translate_modulus_guard():
    psi = QuadraticRefinement((0, 0))
    with pytest.raises(ValueError):
        qtranslate(psi, Covector((1, 0), 4))
    with pytest.raises(ValueError):
        qtranslate(psi, Covector((1, 0)))


def test_arf_values_rank_one():
    by_arf = {0: [], 1: []}
    for psi in enumerate_refinements(1):
        by_arf[arf(psi)].append(psi.basis_values)
    assert by_arf[0] == [(0, 0), (0, 1), (1, 0)]
    assert by_arf[1] == [(1, 1)]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_arf_is_the_per_pair_sum(r):
    for psi in enumerate_refinements(r):
        values = psi.basis_values
        assert arf(psi) == sum(values[2 * k] * values[2 * k + 1] for k in range(r)) % 2


def test_arf_is_orbit_invariant():
    rng = random.Random(13)
    for r in (1, 2, 3):
        for psi in enumerate_refinements(r):
            a = random_symplectic_word(r, rng.randint(0, 10), rng)
            assert arf(qact(psi, a)) == arf(psi)


def test_expected_orbit_sizes_table():
    assert [expected_orbit_sizes(r) for r in (1, 2, 3, 4, 5)] == [
        (3, 1), (10, 6), (36, 28), (136, 120), (528, 496)]


def test_fast_orbit_step_matches_generic_action():
    # the bit-twiddling transvection step against qact on the same matrices
    rng = random.Random(19)
    for r in (1, 2, 3):
        for v in transvection_candidates(r):
            t = transvection(v)
            for _ in range(5):
                psi = QuadraticRefinement(tuple(rng.randint(0, 1) for _ in range(2 * r)))
                moved = qact(psi, t)
                if qeval(psi, v) == 1:
                    assert moved == psi
                assert _orbit_bitset(psi.state, 2 * r, _full(2 * r)) >> moved.state & 1


def test_orbit_of_frozen_rank_one():
    # bit s stands for state s: the zero refinement's orbit is states 0, 1, 2; Arf one's is 3 alone
    assert _orbit_bitset(0, 2, _full(2)) == 0b0111
    assert _orbit_bitset(3, 2, _full(2)) == 0b1000


@pytest.mark.parametrize("r", [1, 2, 3, 9, 10])
def test_orbit_decomposition_against_formulas(r):
    report = orbit_decomposition(r)
    assert report.rank == r
    assert tuple(c.arf_label for c in report.orbits) == (0, 1)
    assert tuple(c.size for c in report.orbits) == expected_orbit_sizes(r)
    assert report.orbits[0].representative == QuadraticRefinement.zero(r)
    assert report.orbits[1].representative == QuadraticRefinement.arf_one(r)


def test_orbit_decomposition_rejects_overlapping_orbits(monkeypatch):
    # a closure that also reaches state 0 from every start makes the second orbit overlap the first
    monkeypatch.setattr(quadratic, "_orbit_bitset", lambda start, nbits, rest: (1 << start) | 1)
    with pytest.raises(ArithmeticError, match="overlap"):
        orbit_decomposition(1)


def test_orbit_sizes_sum_to_refinement_count():
    for r in (1, 2, 3, 4):
        a0, a1 = expected_orbit_sizes(r)
        assert a0 + a1 == 4 ** r


def test_group_fixed_classification_rank_one_and_two():
    fixed1 = [psi for psi in enumerate_refinements(1) if is_group_fixed(psi)]
    assert fixed1 == [QuadraticRefinement((1, 1))]
    assert not any(is_group_fixed(psi) for psi in enumerate_refinements(2))


def test_rank_limits():
    # listing stops at 9 (2^20 refinement objects at r = 10); decomposition builds only representatives
    with pytest.raises(ValueError, match=r"^rank must lie in 1\.\.10, got 11$"):
        orbit_decomposition(11)
    with pytest.raises(ValueError, match=r"^rank must lie in 1\.\.9, got 10$"):
        enumerate_refinements(10)


def _closure(start, nbits, directions):
    """Breadth-first closure of a state under the transvections at directions, one state at a time.

    psi(v) keeps its pair term and the flip is v with the two bits of each pair
    exchanged, its coordinate j being phibar(v, e_j): the definitions, valid
    for every direction, not the shortcuts `_closure_steps` takes.
    """
    even = sum(1 << i for i in range(0, nbits, 2))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for v in directions:
                par = (v & (v >> 1) & even).bit_count() & 1
                if ((s & v).bit_count() ^ par) & 1:
                    continue  # psi(v) = 1: this transvection fixes the state
                t = s ^ (((v & even) << 1) | ((v >> 1) & even))
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return seen


def _orbit_states(start, nbits):
    """Closure of a state under the generators."""
    return _closure(start, nbits, _generators(nbits))


def _bitset(states):
    return sum(1 << s for s in states)


def _full(nbits):
    """The set of every state, the `rest` that lets a closure stop only on a quiet cycle."""
    return (1 << (1 << nbits)) - 1


def _all_directions_closure(start, nbits):
    """Closure of a state under the transvections at every nonzero direction."""
    return _closure(start, nbits, range(1, 1 << nbits))


def _fixed_by_all_directions(psi):
    n = 2 * psi.rank
    return all(qeval(psi, Vector(bits)) == 1
               for bits in product((0, 1), repeat=n) if any(bits))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_generator_closure_matches_all_directions_every_start(r):
    n = 2 * r
    assert len(_generators(n)) == 3 * r - 1
    for start in range(1 << n):
        orbit = _orbit_bitset(start, n, _full(n))
        assert orbit == _bitset(_all_directions_closure(start, n))
        assert orbit == _bitset(_orbit_states(start, n))


def test_generator_closure_matches_all_directions_rank_four():
    rng = random.Random(2024)
    for start in rng.sample(range(1 << 8), 20):
        assert _orbit_bitset(start, 8, _full(8)) == _bitset(_all_directions_closure(start, 8))


@pytest.mark.parametrize("r", [4, 5, 6])
def test_bitset_closure_matches_breadth_first_search(r):
    n = 2 * r
    rng = random.Random(300 + r)
    for start in rng.sample(range(1 << n), 20):
        assert _orbit_bitset(start, n, _full(n)) == _bitset(_orbit_states(start, n))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_closure_steps_permute_the_generators(r):
    # the documented order: u_i + u_{i+1} for i = r - 1 .. 1, then v_r, u_r, ..., v_1, u_1
    n = 2 * r
    u, v = (lambda i: 1 << (n - 2 * i + 1)), (lambda i: 1 << (n - 2 * i))
    assert _generators(n) == (*(u(i) | u(i + 1) for i in range(r - 1, 0, -1)),
                              *(d for i in range(r, 0, -1) for d in (v(i), u(i))))
    # each step rebuilt from its definition, state by state, in _generators order, with the pair
    # term of psi(v) and the swap mask: v with the two bits of each pair exchanged
    even = sum(1 << i for i in range(0, n, 2))
    states = range(1 << n)
    clears = [_bitset(s for s in states if not s >> k & 1) for k in range(n)]
    built = []
    for d in _generators(n):
        par = (d & (d >> 1) & even).bit_count() & 1
        swap = ((d & even) << 1) | ((d >> 1) & even)
        built.append((_bitset(s for s in states if not ((s & d).bit_count() ^ par) & 1),
                      tuple((1 << k, clears[k]) for k in range(n) if swap >> k & 1)))
    assert list(_closure_steps(n)) == built


@pytest.mark.parametrize("r", range(1, 9))
def test_no_generator_holds_both_bits_of_a_pair(r):
    # so psi(v) at a generator has no pair term: the public qeval, which keeps it, agrees
    n = 2 * r
    assert all(d & d >> 1 & _pair_mask(n) == 0 for d in _generators(n))
    rng = random.Random(900 + r)
    for _ in range(20):
        psi = QuadraticRefinement(_bits_of(rng.getrandbits(n), n))
        for d in _generators(n):
            assert qeval(psi, Vector(_bits_of(d, n))) == (psi.state & d).bit_count() & 1


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_last_orbit_stopped_by_its_complement_is_whole(r):
    # the second orbit, closed as orbit_decomposition closes it, stops when it fills the complement
    n = 2 * r
    rest = _full(n) & ~_orbit_bitset(0, n, _full(n))
    start = (rest & -rest).bit_length() - 1
    last = _orbit_bitset(start, n, rest)
    assert last == rest == _orbit_bitset(start, n, _full(n))
    if r <= 4:
        assert last == _bitset(_orbit_states(start, n))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_is_group_fixed_matches_all_directions(r):
    for psi in enumerate_refinements(r):
        assert is_group_fixed(psi) == _fixed_by_all_directions(psi)


@pytest.mark.parametrize("nbits", [1, 2, 5, 8])
def test_states_follow_product_order(nbits):
    tuples = list(product((0, 1), repeat=nbits))
    assert [_state_of(b) for b in tuples] == list(range(1 << nbits))
    assert [_bits_of(s, nbits) for s in range(1 << nbits)] == tuples


def test_least_fixed_translate_frozen():
    verdict = splits(1, psi=QuadraticRefinement((0, 1)))
    assert (verdict.witness, verdict.candidates_checked) == (Covector((1, 0), 2), 3)
    verdict = splits(2, psi=QuadraticRefinement.zero(2))
    assert (verdict.witness, verdict.candidates_checked) == (None, 16)


def test_internal_refinements_equal_public_construction():
    rng = random.Random(23)
    big = 10 ** 299 + 12345  # 300 digits
    for r in (1, 2, 3):
        n = 2 * r
        internal = (enumerate_refinements(r)
                    + [orbit.representative for orbit in orbit_decomposition(r).orbits]
                    + [QuadraticRefinement.zero(r), QuadraticRefinement.arf_one(r)])
        for psi in internal:
            public = QuadraticRefinement(psi.basis_values)
            assert psi == public and hash(psi) == hash(public)
            assert type(psi.basis_values) is tuple and all(type(b) is int for b in psi.basis_values)
        assert enumerate_refinements(r) == [QuadraticRefinement(bits) for bits in product((0, 1), repeat=n)]
        for s in range(1 << n):
            assert QuadraticRefinement._trusted(n, s) == QuadraticRefinement(_bits_of(s, n))
        for _ in range(20):
            values = [rng.choice((-big, big, -3, 0, 1, 4)) for _ in range(n)]
            psi = QuadraticRefinement(values)
            assert psi.basis_values == tuple(v % 2 for v in values)
            assert QuadraticRefinement(psi.basis_values) == psi
            phi = QuadraticRefinement([rng.randint(0, 1) for _ in range(n)])
            xbar = Covector([rng.choice((-big, big, -1, 2, 3)) for _ in range(n)], 2)
            a = random_symplectic_word(r, 8, rng) * transvection(Vector((big,) + (1,) * (n - 1)))
            results = [
                (qact(psi, a), QuadraticRefinement([qeval(psi, a.column(j)) for j in range(n)])),
                (qtranslate(psi, xbar), QuadraticRefinement([p + c for p, c in zip(psi.basis_values, xbar.coords)])),
                (qdifference(phi, psi), Covector([p - q for p, q in zip(phi.basis_values, psi.basis_values)], 2)),
            ]
            verdict = splits(r, psi=psi)
            if verdict.splits:
                results.append((verdict.witness, Covector(verdict.witness.coords, 2)))
                results.append((verdict.fixed_refinement, QuadraticRefinement(verdict.fixed_refinement.basis_values)))
            for got, want in results:
                assert got == want and hash(got) == hash(want)
                values = got.coords if isinstance(got, Covector) else got.basis_values
                assert type(values) is tuple and all(type(v) is int and v in (0, 1) for v in values)
