import pytest

from catalan_hankel import (
    INTEGER_RING,
    POLY_RING,
    Family,
    UniPoly,
    catalan_conv,
    catalan_series,
    companion_poly,
    companion_poly_t,
    lucas,
    mixed_powers,
    narayana_conv,
    narayana_series,
    narayana_series_weighted,
)

from catalan_hankel import families
from oracles import (
    ballot_prefix,
    catalan_by_recurrence,
    convolve,
    list_power,
    mixed_powers_by_convolution,
    narayana_by_peaks,
)

T = UniPoly((0, 1))


def test_catalan_against_recurrence():
    assert [catalan_conv(1, n) for n in range(16)] == catalan_by_recurrence(16)
    assert catalan_conv(1, -1) == 0


def test_catalan_conv_closed_form_against_convolution():
    base = catalan_by_recurrence(12)
    for k in range(1, 7):
        brute = list_power(base, k)
        assert [catalan_conv(k, n) for n in range(12)] == brute
    assert catalan_conv(3, -2) == 0
    with pytest.raises(ValueError):
        catalan_conv(0, 1)


def test_catalan_power_series_matches_closed_form():
    c = catalan_series(10)
    s = c * c * c * c
    assert list(s.coeffs) == [catalan_conv(4, n) for n in range(10)]


def test_narayana_against_peak_counting():
    for n in range(9):
        assert narayana_conv(1, n) == narayana_by_peaks(n)
    assert narayana_conv(1, -1) == UniPoly()


def test_narayana_printed_values():
    expected = [
        (1,),
        (1,),
        (1, 1),
        (1, 3, 1),
        (1, 6, 6, 1),
        (1, 10, 20, 10, 1),
    ]
    assert [narayana_conv(1, n).coeffs for n in range(6)] == expected


def test_narayana_collapses_to_catalan_at_one():
    for n, c in enumerate(catalan_by_recurrence(12)):
        assert narayana_conv(1, n)(1) == c


def test_weighted_series_definition():
    order = 8
    c0 = narayana_series(order)
    c1 = narayana_series_weighted(order)
    assert c1.coefficient(0) == UniPoly((1,))
    for n in range(1, order):
        assert c1.coefficient(n) == T * c0.coefficient(n)


def test_mixed_power_series_brute_force():
    order = 10
    c0 = list(narayana_series(order).coeffs)
    c1 = list(narayana_series_weighted(order).coeffs)
    powers = mixed_powers(8, order)
    assert len(powers) == 9
    expected = [UniPoly((1,))] + [UniPoly()] * (order - 1)
    for k, got in enumerate(powers):
        assert list(got.coeffs) == expected
        # next power alternates a c0 factor (to odd) and a c1 factor (to even)
        expected = convolve(expected, c0 if k % 2 == 0 else c1)
    assert [list(s.coeffs) for s in mixed_powers(0, 4)] == [[UniPoly((1,))] + [UniPoly()] * 3]
    assert [s.order for s in mixed_powers(3, 0)] == [0] * 4
    with pytest.raises(ValueError):
        mixed_powers(-1, 4)


def test_mixed_powers_collapse_to_catalan_conv_at_one():
    for k in (*range(1, 7), 99999, 100000):
        for n in range(41):
            assert narayana_conv(k, n)(1) == catalan_conv(k, n), (k, n)


def test_narayana_conv_against_convolution_oracle():
    powers = mixed_powers_by_convolution(12, 41)
    for k in range(1, 13):
        assert [narayana_conv(k, n) for n in range(41)] == powers[k], k
    powers = mixed_powers_by_convolution(200, 9)
    for k in (61, 200):
        assert [narayana_conv(k, n) for n in range(9)] == powers[k], k


def test_narayana_conv_independent_of_query_order():
    descending = [narayana_conv(5, n) for n in range(30, -1, -1)]
    ascending = [narayana_conv(5, n) for n in range(31)]
    assert descending[::-1] == ascending


def test_narayana_conv_closed_form_against_ballot_recurrence():
    for k in range(1, 41):
        assert [narayana_conv(k, n) for n in range(40)] == ballot_prefix(k, 40), k
    assert [narayana_conv(1000, n) for n in range(12)] == ballot_prefix(1000, 12)


def test_families_keeps_no_cache():
    assert [v for v in vars(families).values() if hasattr(v, "cache_info")] == []


def test_mixed_power_series_at_large_power():
    # every power up to k = 5000, one product each, against the closed form at t = 1
    powers = mixed_powers(5000, 4)
    assert len(powers) == 5001
    assert [powers[0].coefficient(n)(1) for n in range(4)] == [1, 0, 0, 0]
    for k in range(1, 5001):
        got = [powers[k].coefficient(n)(1) for n in range(4)]
        assert got == [catalan_conv(k, n) for n in range(4)], k


def test_narayana_conv_printed_third_power():
    expected = [
        (1,),
        (2, 1),
        (3, 5, 1),
        (4, 14, 9, 1),
        (5, 30, 40, 14, 1),
    ]
    assert [narayana_conv(3, n).coeffs for n in range(5)] == expected
    assert narayana_conv(3, -1) == UniPoly()


def test_first_mixed_power_coefficient():
    assert mixed_powers(3, 4)[3].coefficient(1) == UniPoly((2, 1))
    pair = narayana_series(4) * narayana_series_weighted(4)
    assert pair.coefficient(1) == UniPoly((1, 1))


def test_lucas_integers():
    # L_n(1, 1) walks the classical Lucas numbers 2, 1, 3, 4, 7, 11, ...
    assert [lucas(n, 1, 1) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]
    with pytest.raises(ValueError):
        lucas(-1, 1, 1)


def test_companion_poly_printed_values():
    expected = {
        1: (1,),
        2: (1, -2),
        3: (1, -3),
        4: (1, -4, 2),
        5: (1, -5, 5),
        6: (1, -6, 9, -2),
    }
    for k, coeffs in expected.items():
        assert companion_poly(k).coeffs == coeffs
    with pytest.raises(ValueError):
        companion_poly(0)


def test_companion_poly_t_degree_and_collapse():
    for k in range(1, 9):
        ht = companion_poly_t(k)
        assert ht.order == (k + 1) // 2 + 1
        collapsed = UniPoly([p(1) for p in ht.coeffs])
        assert collapsed == companion_poly(k)


def test_family_descriptor():
    f = Family("catalan-conv", 2)
    assert f.value(3) == catalan_conv(2, 3)
    assert f.ring is INTEGER_RING
    g = Family("narayana-conv", 2)
    assert g.value(3) == narayana_conv(2, 3)
    assert g.ring is POLY_RING
    with pytest.raises(ValueError):
        Family("poisson", 1)
    with pytest.raises(ValueError):
        Family("catalan-conv", 0)
