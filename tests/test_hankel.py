import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_hankel import (
    INTEGER_RING,
    POLY_RING,
    Family,
    HankelMatrix,
    UniPoly,
    catalan_conv,
    det_fraction_free,
    family_dets,
    hankel,
    hankel_matrix,
    leading_minors,
    narayana_conv,
)
from catalan_hankel.report import encode_value

from oracles import cofactor_det, per_size_det, sweep_minors

# Fixed-seed examples and no example database, so tier-1 replays exactly.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def rand_poly(rng, deg=2, bound=5):
    return UniPoly([rng.randint(-bound, bound) for _ in range(deg + 1)])


def from_sequence(ring, a):
    """The Hankel matrix whose defining sequence a(0..2N-2) is ``a``."""
    return HankelMatrix(ring, tuple(a))


def oracle_det(rows, one=1):
    return sweep_minors(rows, one)[-1]


def test_hankel_matrix_validation():
    for even in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            HankelMatrix(INTEGER_RING, even)
    m = HankelMatrix(INTEGER_RING, (1, 2, 3))
    assert m.n == 2 and m.ring is INTEGER_RING
    assert m.rows == ((1, 2), (2, 3))
    assert encode_value(m.rows) == [[1, 2], [2, 3]]
    empty = HankelMatrix(INTEGER_RING, ())
    assert empty.n == 0 and empty.rows == ()
    single = HankelMatrix(INTEGER_RING, (7,))
    assert single.n == 1 and single.rows == ((7,),)


def test_matrix_json_with_polynomials():
    m = HankelMatrix(POLY_RING, (UniPoly((1, 1)), UniPoly(), UniPoly((3,))))
    assert encode_value(m.rows) == [[[1, 1], []], [[], [3]]]


def test_hankel_matrix_layout():
    m = hankel_matrix(INTEGER_RING, lambda n: catalan_conv(1, n), 0, 3)
    assert m.rows == ((1, 1, 2), (1, 2, 5), (2, 5, 14)) and m.ring is INTEGER_RING
    shifted = hankel_matrix(INTEGER_RING, lambda n: catalan_conv(1, n), -2, 3)
    assert shifted.rows[0] == (0, 0, 1)
    with pytest.raises(ValueError):
        hankel_matrix(INTEGER_RING, lambda n: 0, 0, -1)


def test_det_base_cases():
    assert oracle_det(()) == 1
    assert oracle_det(((7,),)) == 7
    assert oracle_det(((1, 2), (3, 4))) == -2
    assert det_fraction_free(HankelMatrix(INTEGER_RING, ())) == 1
    assert det_fraction_free(HankelMatrix(INTEGER_RING, (7,))) == 7
    assert det_fraction_free(HankelMatrix(INTEGER_RING, (1, 2, 3))) == -1


def test_minors_start_from_the_ring_one():
    one = UniPoly((1,))
    sweep = hankel_matrix(POLY_RING, lambda n: narayana_conv(3, n), -1, 4)
    for d in (
        det_fraction_free(HankelMatrix(POLY_RING, ())),
        leading_minors(sweep)[0],
        family_dets(Family("narayana-conv", 2), 0, 0)[0],
    ):
        assert type(d) is UniPoly and d == one
    assert type(det_fraction_free(HankelMatrix(INTEGER_RING, ()))) is int


def test_matrix_values_live_in_its_ring():
    # An int is a constant of Z[t], so every minor is a UniPoly.
    d = det_fraction_free(HankelMatrix(POLY_RING, (2,)))
    assert type(d) is UniPoly and d == UniPoly((2,))
    minors = leading_minors(HankelMatrix(POLY_RING, (1, 2, 5)))
    assert minors == [UniPoly((1,))] * 3
    assert all(type(d) is UniPoly for d in minors)
    # A polynomial is not an integer.
    with pytest.raises(TypeError):
        HankelMatrix(INTEGER_RING, (UniPoly((0, 1)),))


def test_det_zero_pivot_row_swap():
    m = HankelMatrix(INTEGER_RING, (0, 1, 0))
    assert det_fraction_free(m) == -1
    m = HankelMatrix(INTEGER_RING, (0, 0, 1, 0, 0))
    assert det_fraction_free(m) == -1


def test_det_singular_exactly_zero():
    assert oracle_det(((1, 2, 3), (2, 4, 6), (1, 0, 1))) == 0
    t = UniPoly((0, 1))
    row = (1 + t, 2 * t, UniPoly((3,)))
    rows = (row, tuple(2 * e for e in row), (t, UniPoly((1,)), 1 + t))
    assert oracle_det(rows, UniPoly((1,))) == UniPoly()
    # Hankel twins: geometric sequences give rank 1, arithmetic ones rank 2.
    assert det_fraction_free(from_sequence(INTEGER_RING, (1, 2, 4, 8, 16))) == 0
    assert det_fraction_free(from_sequence(INTEGER_RING, (1, 2, 3, 4, 5))) == 0
    powers = [UniPoly((1,))]
    for _ in range(4):
        powers.append(powers[-1] * (1 + t))
    d = det_fraction_free(from_sequence(POLY_RING, powers))
    assert type(d) is UniPoly and d == UniPoly()


def leading_blocks(rows):
    return [[list(row[:i]) for row in rows[:i]] for i in range(len(rows) + 1)]


def hankel_matrices(ring, entries, n_max):
    """Hankel matrices of sizes 0..n_max.  Besides plain draws, the defining
    sequences come with runs of leading zeros, as all zeros, and as isolated
    nonzeros, so that chains with degree gaps and early ends show up."""
    zero = ring.zero
    nonzero = entries.filter(bool)

    def sequences(n):
        length = max(0, 2 * n - 1)
        plain = st.lists(entries, min_size=length, max_size=length)
        if not length:
            return plain
        leading = st.integers(1, length).flatmap(
            lambda z: plain.map(lambda a: [zero] * z + a[z:])
        )
        isolated = st.dictionaries(st.integers(0, length - 1), nonzero, min_size=1, max_size=2).map(
            lambda spots: [spots.get(i, zero) for i in range(length)]
        )
        return st.one_of(plain, leading, isolated, st.just([zero] * length))

    return st.integers(0, n_max).flatmap(sequences).map(lambda a: from_sequence(ring, a))


def square(entries, n_max):
    """General square matrices as plain row tuples, for the oracles."""
    return st.integers(0, n_max).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: tuple(map(tuple, rows)))
    )


def assert_det_matches_cofactor(general, one, hankel_m):
    """The sweep oracle on a general matrix and the library on a Hankel one,
    both against cofactor expansion."""
    expected = [cofactor_det(block) for block in leading_blocks(general)]
    assert sweep_minors(general, one) == expected
    assert det_fraction_free(hankel_m) == cofactor_det([list(r) for r in hankel_m.rows])
    assert leading_minors(hankel_m) == [
        cofactor_det(block) for block in leading_blocks(hankel_m.rows)
    ]


DENSE_INT = st.integers(-9, 9)
DENSE_POLY = st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(UniPoly)


@PROPERTY
@given(square(DENSE_INT, 6), hankel_matrices(INTEGER_RING, DENSE_INT, 6))
def test_det_against_cofactor_oracle_int(m, h):
    assert_det_matches_cofactor(m, INTEGER_RING.one, h)


@PROPERTY
@given(square(DENSE_POLY, 4), hankel_matrices(POLY_RING, DENSE_POLY, 4))
def test_det_against_cofactor_oracle_poly(m, h):
    assert_det_matches_cofactor(m, POLY_RING.one, h)


def test_det_commutes_with_evaluation():
    rng = random.Random(23)
    one = UniPoly((1,))
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
        at_two = [[e(2) for e in row] for row in rows]
        assert oracle_det(rows, one)(2) == oracle_det(at_two)
        m = from_sequence(POLY_RING, [rand_poly(rng) for _ in range(2 * n - 1)])
        at_two = HankelMatrix(INTEGER_RING, tuple(e(2) for e in m.seq))
        assert det_fraction_free(m)(2) == det_fraction_free(at_two)


def test_unit_hankel_determinants():
    for n in range(11):
        assert family_dets(Family("catalan-conv", 1), 0, n)[-1] == 1
        assert family_dets(Family("catalan-conv", 1), 1, n)[-1] == 1
        assert family_dets(Family("catalan-conv", 2), 0, n)[-1] == 1


def test_narayana_det_power_pattern():
    from catalan_hankel import binomial

    narayana = Family("narayana-conv", 1)
    for n in range(7):
        for shift in (0, 1):
            assert family_dets(narayana, shift, n)[-1] == UniPoly.monomial(binomial(n, 2))
    assert family_dets(narayana, 0, 0)[-1] == UniPoly((1,))


def test_family_validation():
    with pytest.raises(ValueError):
        family_dets(Family("catalan-conv", 0), 0, 3)
    with pytest.raises(ValueError):
        family_dets(Family("narayana-conv", 2), 0, -1)


@pytest.mark.parametrize(
    "kind, k, size",
    [
        ("catalan-conv", 0, 0),
        ("narayana-conv", -3, 0),
        ("narayana-conv", 0, 2),
        ("catalan-conv", 1, -1),
        ("catalan-conv", 2, -1),
        ("narayana-conv", 1, -1),
    ],
)
def test_power_and_size_checked_before_any_entry(kind, k, size):
    # size 0 reads no entry, so k must be checked up front
    with pytest.raises(ValueError):
        family_dets(Family(kind, k), 0, size)


def assert_minors_match_per_size(rows, one, minors):
    """``minors`` of the matrix ``rows`` against one elimination per
    leading block, in value and type."""
    assert len(minors) == len(rows) + 1
    for i, block in enumerate(leading_blocks(rows)):
        expected = per_size_det(block, one)
        assert minors[i] == expected and type(minors[i]) is type(expected), (i, rows)


def assert_library_minors_match_per_size(m):
    assert_minors_match_per_size(m.rows, m.ring.one, leading_minors(m))


def assert_library_minors_match_sweep(m):
    """``leading_minors(m)`` against the independent sweep oracle, in value
    and type; returns the minors."""
    minors, swept = leading_minors(m), sweep_minors(m.rows, m.ring.one)
    assert minors == swept and list(map(type, minors)) == list(map(type, swept))
    return minors


def test_leading_minors_match_sweep_catalan_grid():
    # sweep_minors is checked against per_size_det by the sparse tests, and
    # the Narayana grid below keeps per_size_det on family matrices.
    for k in range(1, 10):
        for shift in range(-6, 3):
            m = hankel_matrix(INTEGER_RING, lambda n: catalan_conv(k, n), shift, 30)
            minors = assert_library_minors_match_sweep(m)
            assert family_dets(Family("catalan-conv", k), shift, 30) == minors


def test_leading_minors_match_per_size_narayana_grid():
    for k in range(1, 7):
        for shift in range(-3, 2):
            m = hankel_matrix(POLY_RING, lambda n: narayana_conv(k, n), shift, 9)
            assert_library_minors_match_per_size(m)
            dets = family_dets(Family("narayana-conv", k), shift, 9)
            assert all(type(d) is UniPoly for d in dets)
            assert dets == leading_minors(m)


SPARSE_INT = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
SPARSE_POLY = st.lists(st.integers(-3, 3) | st.just(0), max_size=3).map(UniPoly)


@PROPERTY
@given(square(SPARSE_INT, 8), hankel_matrices(INTEGER_RING, SPARSE_INT, 8))
def test_leading_minors_match_per_size_sparse_int(m, h):
    assert_minors_match_per_size(m, 1, sweep_minors(m, 1))
    assert_library_minors_match_per_size(h)


@PROPERTY
@given(square(SPARSE_POLY, 4), hankel_matrices(POLY_RING, SPARSE_POLY, 4))
def test_leading_minors_match_per_size_sparse_poly(m, h):
    one = POLY_RING.one
    assert_minors_match_per_size(m, one, sweep_minors(m, one))
    assert_library_minors_match_per_size(h)


def assert_minors_match_every_oracle(m):
    minors = assert_library_minors_match_sweep(m)
    assert_minors_match_per_size(m.rows, m.ring.one, minors)
    for d, block in list(zip(minors, leading_blocks(m.rows)))[1:7]:
        expected = cofactor_det(block)
        assert d == expected and type(d) is type(expected)


@PROPERTY
@given(hankel_matrices(INTEGER_RING, SPARSE_INT, 10))
def test_hankel_minors_match_every_oracle_int(m):
    assert_minors_match_every_oracle(m)


@PROPERTY
@given(hankel_matrices(POLY_RING, SPARSE_POLY, 5))
def test_hankel_minors_match_every_oracle_poly(m):
    assert_minors_match_every_oracle(m)


def test_swap_zeroes_the_sizes_it_skips():
    # Column 0 has its first nonzero entry in row 3, so D(1..3) vanish.
    rows = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
    assert sweep_minors(rows, 1) == [1, 0, 0, 0, -1]
    # No nonzero entry below: every remaining minor is the ring's zero.
    z = UniPoly()
    rows = ((UniPoly((1,)), z, z), (z, z, z), (z, z, UniPoly((2,))))
    assert sweep_minors(rows, UniPoly((1,))) == [1, UniPoly((1,)), z, z]
    # Hankel twins: leading zeros are a degree gap of the chain, and a
    # zero remainder ends it.
    m = from_sequence(INTEGER_RING, (0, 0, 0, 1, 0, 0, 0))
    assert leading_minors(m) == [1, 0, 0, 0, 1]
    m = from_sequence(POLY_RING, (UniPoly((1,)), z, z, z, z))
    assert leading_minors(m) == [1, UniPoly((1,)), z, z]


def test_sweep_costs_one_elimination(monkeypatch):
    calls = []
    real_div = hankel.exact_div

    def counting_div(a, b):
        calls.append(1)
        return real_div(a, b)

    monkeypatch.setattr(hankel, "exact_div", counting_div)
    dets = family_dets(Family("catalan-conv", 4), -2, 40)
    assert dets[:6] == [1, 0, 0, -1, -1, 2]
    # The chain divides O(N^2) coefficients; one 40 x 40 elimination
    # divides about 19 000 entries.
    assert 0 < len(calls) <= 40**2


def test_hankel_matrix_reads_each_index_once():
    for shift in (-3, 0, 2):
        for size in range(6):
            calls = []

            def seq(m):
                calls.append(m)
                return catalan_conv(3, m)

            m = hankel_matrix(INTEGER_RING, seq, shift, size)
            assert calls == list(range(shift, shift + max(0, 2 * size - 1)))
            assert m.rows == tuple(
                tuple(catalan_conv(3, i + j + shift) for j in range(size))
                for i in range(size)
            )
