import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_hankel import (
    INTEGER_RING,
    POLY_RING,
    Series,
    TruncationError,
    UniPoly,
    catalan_series,
)

from oracles import convolve

# Fixed-seed examples and no example database, so tier-1 replays exactly.
PROPERTY = settings(derandomize=True, database=None, deadline=None)
polys = st.lists(st.integers(-9, 9), max_size=4).map(UniPoly)
rings = st.sampled_from([(INTEGER_RING, st.integers(-9, 9)), (POLY_RING, polys)])


def test_order_is_explicit():
    s = Series(INTEGER_RING, [1, 2, 3])
    assert s.order == 3
    assert s.coefficient(0) == 1
    assert s.coefficient(-5) == 0
    with pytest.raises(TruncationError):
        s.coefficient(3)


def test_from_polynomial_pads():
    s = Series.from_polynomial(INTEGER_RING, [1, 2], 5)
    assert s.coeffs == (1, 2, 0, 0, 0)
    p = Series.from_polynomial(POLY_RING, [1, UniPoly((0, 1))], 3)
    assert p.coeffs == (UniPoly((1,)), UniPoly((0, 1)), UniPoly())


def test_binary_ops_truncate_to_min_order():
    a = Series(INTEGER_RING, [1, 2, 3, 4])
    b = Series(INTEGER_RING, [1, 1])
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert (a * b).coeffs == (1, 3)


@PROPERTY
@given(st.data())
def test_binary_ops_properties(data):
    ring, scalars = data.draw(rings)
    a, b = (Series(ring, data.draw(st.lists(scalars, max_size=7))) for _ in "ab")
    n = min(a.order, b.order)
    assert (a + b).order == (a * b).order == n
    assert (a + b).coeffs == tuple(a.coeffs[i] + b.coeffs[i] for i in range(n))
    assert (a * b).coeffs == tuple(convolve(list(a.coeffs), list(b.coeffs)))
    assert a + b == b + a


def test_mul_example():
    c = catalan_series(5)
    assert (c * c).coeffs == (1, 2, 5, 14, 42)


def test_scalar_broadcast():
    a = Series(INTEGER_RING, [1, 2, 3])
    assert (a + 1).coeffs == (2, 2, 3)
    assert (1 + a).coeffs == (2, 2, 3)
    assert (a * 2).coeffs == (2, 4, 6)
    t = UniPoly((0, 1))
    p = Series(POLY_RING, [1, t])
    assert (p * t).coeffs == (t, UniPoly((0, 0, 1)))


def test_mixed_ring_rejected():
    a = Series(INTEGER_RING, [1, 2])
    b = Series(POLY_RING, [1, 2])
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(TypeError):
        Series(INTEGER_RING, [UniPoly((1,))])


def test_reciprocal_of_catalan_series():
    c = catalan_series(5)
    assert c.reciprocal().coeffs == (1, -1, -1, -2, -5)


@PROPERTY
@given(st.data())
def test_reciprocal_round_trip(data):
    ring, scalars = data.draw(rings)
    s = Series(ring, [1] + data.draw(st.lists(scalars, max_size=7)))
    assert s * s.reciprocal() == Series.from_polynomial(ring, [ring.one], s.order)


def test_reciprocal_requires_unit_constant():
    with pytest.raises(ValueError):
        Series(INTEGER_RING, [2, 1]).reciprocal()
    with pytest.raises(TruncationError):
        Series(INTEGER_RING, []).reciprocal()


def test_shift_gains_order():
    s = Series(INTEGER_RING, [1, 2])
    shifted = s.shift(2)
    assert shifted.order == 4
    assert shifted.coeffs == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_truncated_and_zero_extended():
    s = Series(INTEGER_RING, [1, 2, 3])
    # a known polynomial is zero-extended by from_polynomial, which truncates too
    assert Series.from_polynomial(INTEGER_RING, s.coeffs, 5).coeffs == (1, 2, 3, 0, 0)
    assert Series.from_polynomial(INTEGER_RING, s.coeffs, 2).coeffs == (1, 2)
