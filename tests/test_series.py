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
    s = Series(INTEGER_RING, [1, 2, 3], 3)
    assert s.order == 3
    assert s.coefficient(0) == 1
    assert s.coefficient(-5) == 0
    with pytest.raises(TruncationError):
        s.coefficient(3)


def test_constructor_pads_and_cuts_to_its_order():
    s = Series(INTEGER_RING, [1, 2], 5)
    assert s.coeffs == (1, 2, 0, 0, 0)
    # a known polynomial is zero-extended, and a series cut to a lower order
    assert Series(INTEGER_RING, s.coeffs, 7).coeffs == (1, 2, 0, 0, 0, 0, 0)
    assert Series(INTEGER_RING, s.coeffs, 1).coeffs == (1,)
    p = Series(POLY_RING, [1, UniPoly((0, 1))], 3)
    assert p.coeffs == (UniPoly((1,)), UniPoly((0, 1)), UniPoly())
    for ring in (INTEGER_RING, POLY_RING):
        one, zero = ring.one, ring.zero
        for given in range(5):
            for order in range(5):
                s = Series(ring, [one] * given, order)
                known = min(given, order)
                assert s.order == order
                assert s.coeffs == (one,) * known + (zero,) * (order - known)
                assert [type(c) for c in s.coeffs] == [type(one)] * order
    # any iterable, read once: a generator is padded and cut like a list
    assert Series(INTEGER_RING, (n * n for n in range(4)), 6).coeffs == (0, 1, 4, 9, 0, 0)
    assert Series(INTEGER_RING, (n * n for n in range(4)), 2).coeffs == (0, 1)
    for coeffs in ([], [1, 2]):
        with pytest.raises(ValueError, match="^order must be non-negative$"):
            Series(INTEGER_RING, coeffs, -1)
    # the order is stated, never read off the coefficients
    with pytest.raises(TypeError):
        Series(INTEGER_RING, [1, 2])
    # a coefficient the order cuts is still coerced, so a foreign one is
    # refused even at order 0
    for order in (0, 1):
        for foreign in (1.5, "3", UniPoly((1,))):
            with pytest.raises(TypeError):
                Series(INTEGER_RING, [1, foreign], order)
        with pytest.raises(TypeError):
            Series(POLY_RING, [1, 1.5], order)
    assert Series(INTEGER_RING, [True, 2], 1).coeffs == (1,)
    assert type(Series(INTEGER_RING, [True, 2], 1).coeffs[0]) is int
    assert Series(POLY_RING, [2, True], 0).coeffs == ()


def test_equality_repr_and_immutability():
    s = Series(INTEGER_RING, [1, 2], 2)
    assert (s == 3) is False and (s != 3) is True
    assert repr(s) == "Series(ZZ, order=2, [1, 2])"
    assert repr(Series(POLY_RING, [1], 1)) == "Series(ZZ[t], order=1, [UniPoly((1,))])"
    # the same coefficients at different orders are different series
    assert Series(INTEGER_RING, [1, 2], 3) != s
    with pytest.raises(AttributeError):
        s.coeffs = (5,)
    assert s.coeffs == (1, 2)


def test_binary_ops_truncate_to_min_order():
    a = Series(INTEGER_RING, [1, 2, 3, 4], 4)
    b = Series(INTEGER_RING, [1, 1], 2)
    assert (a + b).order == 2
    assert (a + b).coeffs == (b + a).coeffs == (2, 3)
    assert (a + a).coeffs == (2, 4, 6, 8)
    assert (a + Series(INTEGER_RING, [], 0)).order == 0
    assert (a * b).order == 2
    assert (a * b).coeffs == (1, 3)


@PROPERTY
@given(st.data())
def test_binary_ops_properties(data):
    ring, scalars = data.draw(rings)
    a, b = (
        Series(ring, data.draw(st.lists(scalars, max_size=7)), data.draw(st.integers(0, 7)))
        for _ in "ab"
    )
    n = min(a.order, b.order)
    assert (a + b).order == (a * b).order == n
    assert (a + b).coeffs == tuple(a.coeffs[i] + b.coeffs[i] for i in range(n))
    assert (a * b).coeffs == tuple(convolve(list(a.coeffs), list(b.coeffs)))
    assert a + b == b + a


def test_mul_example():
    c = catalan_series(5)
    assert (c * c).coeffs == (1, 2, 5, 14, 42)


def test_each_operation_states_its_order():
    for ring in (INTEGER_RING, POLY_RING):
        for m in range(5):
            a = Series(ring, [1, 2, 3], m)
            for n in range(5):
                b = Series(ring, [1, -1], n)
                # a binary operation proves the smaller order
                assert (a + b).order == (b + a).order == (a * b).order == min(m, n)
            # a scalar is known at every order, so the series keeps its own
            for c in (3, ring.one):
                assert (a + c).order == (c + a).order == (a * c).order == (c * a).order == m
            for k in range(4):
                assert a.shift(k).order == m + k
            if m:
                assert a.reciprocal().order == m
            for s in (a + 3, a * 3, a.shift(2), a * a):
                assert [type(c) for c in s.coeffs] == [type(ring.one)] * s.order


def test_scalar_broadcast():
    a = Series(INTEGER_RING, [1, 2, 3], 3)
    assert (a + 1).coeffs == (2, 2, 3)
    assert (1 + a).coeffs == (2, 2, 3)
    assert (a * 2).coeffs == (2, 4, 6)
    # a series of order 0 knows no constant term to add a scalar to
    empty = Series(INTEGER_RING, [], 0)
    assert (empty + 1).order == (1 + empty).order == 0
    t = UniPoly((0, 1))
    p = Series(POLY_RING, [1, t], 2)
    assert (p * t).coeffs == (t, UniPoly((0, 0, 1)))
    # a scalar joins a series as its constant series, at every order
    for ring, scalars in ((INTEGER_RING, (3, True, -2)), (POLY_RING, (3, True, t + 2))):
        for order in range(4):
            s = Series(ring, [ring.one + i for i in range(order)], order)
            for c in scalars:
                constant = Series(ring, [c], s.order)
                assert s + c == c + s == s + constant
                assert [type(x) for x in (s + c).coeffs] == [type(ring.one)] * order
        # a foreign scalar is refused, even by a series with no coefficients
        for order in (0, 2):
            s = Series(ring, [ring.one] * order, order)
            for c in (1.5, "3"):
                with pytest.raises(TypeError):
                    s + c
                with pytest.raises(TypeError):
                    c + s
                with pytest.raises(TypeError):
                    s * c
    with pytest.raises(TypeError):
        Series(INTEGER_RING, [], 0) + t


def test_mixed_ring_rejected():
    a = Series(INTEGER_RING, [1, 2], 2)
    b = Series(POLY_RING, [1, 2], 2)
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b
    # with Z[t] on the left no coercion refuses the Z operand first
    with pytest.raises(TypeError):
        b + a
    with pytest.raises(TypeError):
        b * a
    with pytest.raises(TypeError):
        Series(INTEGER_RING, [UniPoly((1,))], 1)
    # a bool is read as its int
    assert [type(c) for c in Series(INTEGER_RING, [True, 2], 2).coeffs] == [int, int]
    assert type(Series(POLY_RING, [False, True], 2).coeffs[1].coeffs[0]) is int


def test_reciprocal_of_catalan_series():
    c = catalan_series(5)
    assert c.reciprocal().coeffs == (1, -1, -1, -2, -5)


@PROPERTY
@given(st.data())
def test_reciprocal_round_trip(data):
    ring, scalars = data.draw(rings)
    s = Series(ring, [1] + data.draw(st.lists(scalars, max_size=7)), data.draw(st.integers(1, 8)))
    assert s * s.reciprocal() == Series(ring, [ring.one], s.order)


def test_reciprocal_requires_unit_constant():
    with pytest.raises(ValueError):
        Series(INTEGER_RING, [2, 1], 2).reciprocal()
    with pytest.raises(TruncationError):
        Series(INTEGER_RING, [1], 0).reciprocal()


def test_shift_gains_order():
    s = Series(INTEGER_RING, [1, 2], 2)
    shifted = s.shift(2)
    assert shifted.order == 4
    assert shifted.coeffs == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        s.shift(-1)
    assert s.shift(0) == s

