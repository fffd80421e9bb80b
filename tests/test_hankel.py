import random

import pytest

from catalan_hankel import (
    SquareMatrix,
    UniPoly,
    catalan_conv,
    catalan_det,
    det_fraction_free,
    hankel_matrix,
    narayana_det,
)

from oracles import cofactor_det


def rand_int_matrix(rng, n, bound=9):
    return SquareMatrix(
        tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n))
    )


def rand_poly_matrix(rng, n, deg=2, bound=5):
    def entry():
        return UniPoly([rng.randint(-bound, bound) for _ in range(deg + 1)])

    return SquareMatrix(tuple(tuple(entry() for _ in range(n)) for _ in range(n)))


def test_square_matrix_validation():
    with pytest.raises(ValueError):
        SquareMatrix(((1, 2), (3,)))
    m = SquareMatrix(((1, 2), (3, 4)))
    assert m.n == 2
    assert m.entry(1, 0) == 3
    assert m.to_json() == {"n": 2, "rows": [[1, 2], [3, 4]]}


def test_matrix_json_with_polynomials():
    m = SquareMatrix(((UniPoly((1, 1)), UniPoly()), (UniPoly((0, 2)), UniPoly((3,)))))
    assert m.to_json() == {"n": 2, "rows": [[[1, 1], []], [[0, 2], [3]]]}


def test_hankel_matrix_layout():
    m = hankel_matrix(lambda n: catalan_conv(1, n), 0, 3)
    assert m.rows == ((1, 1, 2), (1, 2, 5), (2, 5, 14))
    shifted = hankel_matrix(lambda n: catalan_conv(1, n), -2, 3)
    assert shifted.rows[0] == (0, 0, 1)
    with pytest.raises(ValueError):
        hankel_matrix(lambda n: 0, 0, -1)


def test_det_base_cases():
    assert det_fraction_free(SquareMatrix(())) == 1
    assert det_fraction_free(SquareMatrix(((7,),))) == 7
    assert det_fraction_free(SquareMatrix(((1, 2), (3, 4)))) == -2


def test_det_zero_pivot_row_swap():
    m = SquareMatrix(((0, 1), (1, 0)))
    assert det_fraction_free(m) == -1
    m = SquareMatrix(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    assert det_fraction_free(m) == -1


def test_det_singular_exactly_zero():
    m = SquareMatrix(((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    assert det_fraction_free(m) == 0
    t = UniPoly((0, 1))
    row = (1 + t, 2 * t, UniPoly((3,)))
    m = SquareMatrix((row, tuple(2 * e for e in row), (t, UniPoly((1,)), 1 + t)))
    assert det_fraction_free(m) == UniPoly()


def test_det_against_cofactor_oracle_int():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(0, 5)
        m = rand_int_matrix(rng, n)
        assert det_fraction_free(m) == cofactor_det([list(r) for r in m.rows])


def test_det_against_cofactor_oracle_poly():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_poly_matrix(rng, n)
        assert det_fraction_free(m) == cofactor_det([list(r) for r in m.rows])


def test_det_commutes_with_evaluation():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rand_poly_matrix(rng, n)
        d = det_fraction_free(m)
        at_two = det_fraction_free(m.map_entries(lambda e: e(2)))
        assert d(2) == at_two


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


def test_hankel_matrix_reads_each_index_once():
    for shift in (-3, 0, 2):
        for size in range(6):
            calls = []

            def seq(m):
                calls.append(m)
                return catalan_conv(3, m)

            m = hankel_matrix(seq, shift, size)
            assert calls == list(range(shift, shift + max(0, 2 * size - 1)))
            assert m.rows == tuple(
                tuple(catalan_conv(3, i + j + shift) for j in range(size))
                for i in range(size)
            )
