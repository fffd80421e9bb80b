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

from oracles import cofactor_det, per_size_det

# Fixed-seed examples and no example database, so tier-1 replays exactly.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def rand_poly_matrix(rng, n, deg=2, bound=5):
    def entry():
        return UniPoly([rng.randint(-bound, bound) for _ in range(deg + 1)])

    return SquareMatrix(POLY_RING, tuple(tuple(entry() for _ in range(n)) for _ in range(n)))


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
    assert det_fraction_free(SquareMatrix(INTEGER_RING, ())) == 1
    assert det_fraction_free(SquareMatrix(INTEGER_RING, ((7,),))) == 7
    assert det_fraction_free(SquareMatrix(INTEGER_RING, ((1, 2), (3, 4)))) == -2


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
    m = SquareMatrix(INTEGER_RING, ((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    assert det_fraction_free(m) == 0
    t = UniPoly((0, 1))
    row = (1 + t, 2 * t, UniPoly((3,)))
    m = SquareMatrix(POLY_RING, (row, tuple(2 * e for e in row), (t, UniPoly((1,)), 1 + t)))
    assert det_fraction_free(m) == UniPoly()


def leading_blocks(m):
    return [[list(row[:i]) for row in m.rows[:i]] for i in range(m.n + 1)]


def square(ring, entries, n_max):
    return st.integers(0, n_max).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: SquareMatrix(ring, tuple(map(tuple, rows))))
    )


def assert_det_matches_cofactor(m):
    assert det_fraction_free(m) == cofactor_det([list(r) for r in m.rows])
    assert leading_minors(m) == [cofactor_det(block) for block in leading_blocks(m)]


@PROPERTY
@given(square(INTEGER_RING, st.integers(-9, 9), 6))
def test_det_against_cofactor_oracle_int(m):
    assert_det_matches_cofactor(m)


@PROPERTY
@given(square(POLY_RING, st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(UniPoly), 4))
def test_det_against_cofactor_oracle_poly(m):
    assert_det_matches_cofactor(m)


def test_det_commutes_with_evaluation():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rand_poly_matrix(rng, n)
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


def assert_minors_match_per_size(m):
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
@given(square(INTEGER_RING, SPARSE_INT, 8))
def test_leading_minors_match_per_size_sparse_int(m):
    assert_minors_match_per_size(m)


@PROPERTY
@given(square(POLY_RING, SPARSE_POLY, 4))
def test_leading_minors_match_per_size_sparse_poly(m):
    assert_minors_match_per_size(m)


def test_swap_zeroes_the_sizes_it_skips():
    # Column 0 has its first nonzero entry in row 3, so D(1..3) vanish.
    m = SquareMatrix(INTEGER_RING, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)))
    assert leading_minors(m) == [1, 0, 0, 0, -1]
    # No nonzero entry below: every remaining minor is the ring's zero.
    z = UniPoly()
    m = SquareMatrix(POLY_RING, ((UniPoly((1,)), z, z), (z, z, z), (z, z, UniPoly((2,)))))
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
    # Column c of one 40 x 40 elimination divides (39 - c)^2 entries.
    assert 0 < len(calls) <= sum((39 - c) ** 2 for c in range(1, 39))


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
