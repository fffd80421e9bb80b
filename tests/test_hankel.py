import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_hankel import (
    INTEGER_RING,
    POLY_RING,
    SquareMatrix,
    UniPoly,
    catalan_conv,
    catalan_det,
    catalan_dets,
    det_fraction_free,
    hankel,
    hankel_matrix,
    leading_minors,
    narayana_conv,
    narayana_det,
    narayana_dets,
)
from catalan_hankel.report import encode_value

from oracles import cofactor_det, per_size_det, sweep_minors

# Fixed-seed examples and no example database, so tier-1 replays exactly.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def rand_poly(rng, deg=2, bound=5):
    return UniPoly([rng.randint(-bound, bound) for _ in range(deg + 1)])


def from_sequence(ring, a):
    """The Hankel matrix whose defining sequence a(0..2N-2) is ``a``."""
    n = (len(a) + 1) // 2
    return SquareMatrix(ring, tuple(tuple(a[i : i + n]) for i in range(n)))


def oracle_det(rows, one=1):
    return sweep_minors(rows, one)[-1]


def test_square_matrix_validation():
    with pytest.raises(ValueError):
        SquareMatrix(INTEGER_RING, ((1, 2), (3,)))
    m = SquareMatrix(INTEGER_RING, ((1, 2), (3, 4)))
    assert m.n == 2 and m.ring is INTEGER_RING
    assert m.rows[1][0] == 3
    assert encode_value(m.rows) == [[1, 2], [3, 4]]


def test_matrix_json_with_polynomials():
    m = SquareMatrix(POLY_RING, ((UniPoly((1, 1)), UniPoly()), (UniPoly((0, 2)), UniPoly((3,)))))
    assert encode_value(m.rows) == [[[1, 1], []], [[0, 2], [3]]]


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
    assert det_fraction_free(SquareMatrix(INTEGER_RING, ())) == 1
    assert det_fraction_free(SquareMatrix(INTEGER_RING, ((7,),))) == 7
    assert det_fraction_free(SquareMatrix(INTEGER_RING, ((1, 2), (2, 3)))) == -1


def test_non_hankel_matrix_rejected():
    m = SquareMatrix(INTEGER_RING, ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        leading_minors(m)
    with pytest.raises(ValueError):
        det_fraction_free(m)


def test_minors_start_from_the_ring_one():
    one = UniPoly((1,))
    sweep = hankel_matrix(POLY_RING, lambda n: narayana_conv(3, n), -1, 4)
    for d in (
        det_fraction_free(SquareMatrix(POLY_RING, ())),
        leading_minors(sweep)[0],
        narayana_dets(2, 0, 0)[0],
    ):
        assert type(d) is UniPoly and d == one
    assert type(det_fraction_free(SquareMatrix(INTEGER_RING, ()))) is int


def test_det_zero_pivot_row_swap():
    m = SquareMatrix(INTEGER_RING, ((0, 1), (1, 0)))
    assert det_fraction_free(m) == -1
    m = SquareMatrix(INTEGER_RING, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
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


def leading_blocks(m):
    return [[list(row[:i]) for row in m.rows[:i]] for i in range(m.n + 1)]


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


def square(ring, entries, n_max):
    return st.integers(0, n_max).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: SquareMatrix(ring, tuple(map(tuple, rows))))
    )


def assert_det_matches_cofactor(general, hankel_m):
    """The sweep oracle on a general matrix and the library on a Hankel one,
    both against cofactor expansion."""
    expected = [cofactor_det(block) for block in leading_blocks(general)]
    assert sweep_minors(general.rows, general.ring.one) == expected
    assert det_fraction_free(hankel_m) == cofactor_det([list(r) for r in hankel_m.rows])
    assert leading_minors(hankel_m) == [cofactor_det(block) for block in leading_blocks(hankel_m)]


DENSE_INT = st.integers(-9, 9)
DENSE_POLY = st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(UniPoly)


@PROPERTY
@given(square(INTEGER_RING, DENSE_INT, 6), hankel_matrices(INTEGER_RING, DENSE_INT, 6))
def test_det_against_cofactor_oracle_int(m, h):
    assert_det_matches_cofactor(m, h)


@PROPERTY
@given(square(POLY_RING, DENSE_POLY, 4), hankel_matrices(POLY_RING, DENSE_POLY, 4))
def test_det_against_cofactor_oracle_poly(m, h):
    assert_det_matches_cofactor(m, h)


def test_det_commutes_with_evaluation():
    rng = random.Random(23)
    one = UniPoly((1,))
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
        at_two = [[e(2) for e in row] for row in rows]
        assert oracle_det(rows, one)(2) == oracle_det(at_two)
        m = from_sequence(POLY_RING, [rand_poly(rng) for _ in range(2 * n - 1)])
        at_two = SquareMatrix(INTEGER_RING, tuple(tuple(e(2) for e in row) for row in m.rows))
        assert det_fraction_free(m)(2) == det_fraction_free(at_two)


def test_unit_hankel_determinants():
    for n in range(11):
        assert catalan_det(1, 0, n) == 1
        assert catalan_det(1, 1, n) == 1
        assert catalan_det(2, 0, n) == 1


def test_narayana_det_power_pattern():
    from catalan_hankel import binomial

    for n in range(7):
        for shift in (0, 1):
            assert narayana_det(1, shift, n) == UniPoly.monomial(binomial(n, 2))
    assert narayana_det(1, 0, 0) == UniPoly((1,))


def test_family_validation():
    with pytest.raises(ValueError):
        catalan_det(0, 0, 3)
    with pytest.raises(ValueError):
        narayana_det(2, 0, -1)


@pytest.mark.parametrize(
    "fn, k, size",
    [
        (catalan_det, 0, 0),
        (narayana_det, -3, 0),
        (catalan_dets, 0, 0),
        (narayana_dets, 0, 2),
        (catalan_det, 1, -1),
        (catalan_dets, 2, -1),
        (narayana_dets, 1, -1),
    ],
)
def test_power_and_size_checked_before_any_entry(fn, k, size):
    # size 0 reads no entry, so k must be checked up front
    with pytest.raises(ValueError):
        fn(k, 0, size)


def assert_minors_match_per_size(m, minors=None):
    """``minors`` (by default the library's) against one elimination per
    leading block, in value and type."""
    if minors is None:
        minors = leading_minors(m)
    assert len(minors) == m.n + 1
    for i, block in enumerate(leading_blocks(m)):
        expected = per_size_det(block, m.ring.one)
        assert minors[i] == expected and type(minors[i]) is type(expected), (i, m)


def test_leading_minors_match_per_size_catalan_grid():
    for k in range(1, 10):
        for shift in range(-6, 3):
            m = hankel_matrix(INTEGER_RING, lambda n: catalan_conv(k, n), shift, 30)
            assert_minors_match_per_size(m)
            assert catalan_dets(k, shift, 30) == leading_minors(m)


def test_leading_minors_match_per_size_narayana_grid():
    for k in range(1, 7):
        for shift in range(-3, 2):
            m = hankel_matrix(POLY_RING, lambda n: narayana_conv(k, n), shift, 9)
            assert_minors_match_per_size(m)
            dets = narayana_dets(k, shift, 9)
            assert all(type(d) is UniPoly for d in dets)
            assert dets == leading_minors(m)


SPARSE_INT = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
SPARSE_POLY = st.lists(st.integers(-3, 3) | st.just(0), max_size=3).map(UniPoly)


@PROPERTY
@given(square(INTEGER_RING, SPARSE_INT, 8), hankel_matrices(INTEGER_RING, SPARSE_INT, 8))
def test_leading_minors_match_per_size_sparse_int(m, h):
    assert_minors_match_per_size(m, sweep_minors(m.rows, m.ring.one))
    assert_minors_match_per_size(h)


@PROPERTY
@given(square(POLY_RING, SPARSE_POLY, 4), hankel_matrices(POLY_RING, SPARSE_POLY, 4))
def test_leading_minors_match_per_size_sparse_poly(m, h):
    assert_minors_match_per_size(m, sweep_minors(m.rows, m.ring.one))
    assert_minors_match_per_size(h)


def assert_minors_match_every_oracle(m):
    minors = leading_minors(m)
    assert_minors_match_per_size(m, minors)
    swept = sweep_minors(m.rows, m.ring.one)
    assert minors == swept and list(map(type, minors)) == list(map(type, swept))
    for d, block in list(zip(minors, leading_blocks(m)))[1:7]:
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
    dets = catalan_dets(4, -2, 40)
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
