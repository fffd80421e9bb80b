import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catalan_hankel import (
    INTEGER_RING, POLY_RING, ExactDivisionError, Series, T, UniPoly,
)
from catalan_hankel.report import dumps

from oracles import dadd, ddiv, dmul, dneg, dpoly, dpoly_to_tuple


# Fixed-seed examples and no example database, so tier-1 replays exactly.
PROPERTY = settings(derandomize=True, database=None, deadline=None)
polys = st.lists(st.integers(-50, 50), max_size=7).map(UniPoly)


def rand_poly(rng, max_deg=6, bound=9):
    return UniPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


def test_canonical_trim():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly((0, 0)).coeffs == ()
    assert not UniPoly(())
    assert UniPoly((0, 1)) == T


def test_add_matches_coefficientwise_oracle():
    assert UniPoly((1, 3, 1)) + UniPoly((2, 1)) == UniPoly((3, 4, 1))
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        expected = dpoly_to_tuple(dadd(dpoly(a.coeffs), dpoly(b.coeffs)))
        assert (a + b).coeffs == expected


def test_mul_matches_dict_oracle():
    assert UniPoly((2, 1)) * UniPoly((3, 5, 1)) == UniPoly((6, 13, 7, 1))
    rng = random.Random(11)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        expected = dpoly_to_tuple(dmul(dpoly(a.coeffs), dpoly(b.coeffs)))
        assert (a * b).coeffs == expected


def test_int_interop():
    p = UniPoly((1, 1))
    assert 1 + p == UniPoly((2, 1))
    assert p - 1 == T
    assert 2 * p == UniPoly((2, 2))
    assert 1 - p == UniPoly((0, -1))
    assert p != 1
    assert UniPoly((5,)) == 5


def test_zero_operand_returns_self():
    p = UniPoly((1, 1))
    assert p + 0 is p and 0 + p is p and p + UniPoly() is p and p - UniPoly() is p
    # 0 - p reads through __rsub__ and is a new polynomial
    assert 0 - p == -p == UniPoly((-1, -1))


def test_exact_div_examples():
    num = (1 + T) * (1 + T) * (1 - T)
    assert num.exact_div(1 + T) == (1 + T) * (1 - T)
    assert POLY_RING.div(UniPoly((0, 0, 2)), UniPoly((0, 2))) == T
    assert POLY_RING.div(UniPoly((4, 2)), 2) == 2 + T


@PROPERTY
@given(polys, polys.filter(bool))
def test_exact_div_round_trip(a, b):
    assert (a * b).exact_div(b) == a
    assert POLY_RING.div(a * b, b) == a
    # the oracles' own division, on the dict oracle's product
    da, db = dpoly(a.coeffs), dpoly(b.coeffs)
    assert ddiv(dmul(da, db), db) == da


@PROPERTY
@given(polys, polys, polys, st.integers(-50, 50))
def test_ring_axioms(a, b, c, n):
    zero, one = UniPoly(), UniPoly((1,))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a - b == a + (-b)
    assert a + n == a + UniPoly((n,)) and a * n == a * UniPoly((n,))


@PROPERTY
@given(polys, polys, st.integers(-50, 50))
def test_sub_and_int_operands_match_dict_oracle(a, b, n):
    da, db = dpoly(a.coeffs), dpoly(b.coeffs)
    assert (a - b).coeffs == dpoly_to_tuple(dadd(da, dneg(db)))
    for m in (n, 0):
        dm = dpoly((m,))
        assert (a - m).coeffs == dpoly_to_tuple(dadd(da, dneg(dm)))
        assert (m - a).coeffs == dpoly_to_tuple(dadd(dm, dneg(da)))
        assert (m + a).coeffs == dpoly_to_tuple(dadd(dm, da))
        assert (a == m) == (a.coeffs == dpoly_to_tuple(dm))


@PROPERTY
@given(polys, polys.filter(lambda b: len(b.coeffs) > 1), polys)
def test_exact_div_rejects_every_remainder(a, b, r):
    # a nonzero r below deg b is the remainder of a * b + r, so no exact
    # quotient exists, whatever b's leading coefficient
    r = UniPoly(r.coeffs[: len(b.coeffs) - 1])
    assume(r)
    num = a * b + r
    message = f"{num!r} is not divisible by {b!r}"
    with pytest.raises(ExactDivisionError) as err:
        num.exact_div(b)
    assert str(err.value) == message
    with pytest.raises(ExactDivisionError) as err:
        POLY_RING.div(num, b)
    assert str(err.value) == message


def test_foreign_operands():
    s, p = Series(INTEGER_RING, [1, 2], 2), UniPoly((1, 1))
    with pytest.raises(TypeError):
        s - p
    with pytest.raises(TypeError):
        p - s
    assert (UniPoly((1,)) == 1.0) is False
    assert (UniPoly((1,)) != 1.0) is True
    with pytest.raises(TypeError):
        UniPoly((1,)) * 1.5
    with pytest.raises(TypeError):
        UniPoly((1,)).exact_div("x")

def test_exact_div_failures():
    with pytest.raises(ExactDivisionError):
        UniPoly((1, 1)).exact_div(UniPoly((0, 1)))
    with pytest.raises(ExactDivisionError):
        UniPoly((1,)).exact_div(T)  # a dividend of lower degree
    with pytest.raises(ExactDivisionError):
        UniPoly((3,)).exact_div(UniPoly((2,)))
    with pytest.raises(ZeroDivisionError):
        UniPoly((1,)).exact_div(UniPoly())
    with pytest.raises(ExactDivisionError) as err:
        INTEGER_RING.div(7, 2)
    assert str(err.value) == "7 is not divisible by 2"
    with pytest.raises(ZeroDivisionError):
        INTEGER_RING.div(7, 0)
    # Z's division takes no polynomial, not even the zero polynomial
    for b in (UniPoly((2,)), UniPoly()):
        with pytest.raises(TypeError):
            INTEGER_RING.div(6, b)
    assert INTEGER_RING.div(-6, 3) == -2


def test_monomial_reads_a_bool_as_its_int():
    p = UniPoly.monomial(2, True)
    assert p.coeffs == (0, 0, 1) and type(p.coeffs[-1]) is int
    assert dumps(p) == "[0,0,1]"
    assert UniPoly.monomial(3, False) == UniPoly()
    assert UniPoly.monomial(1, -2).coeffs == (0, -2)
    assert UniPoly.monomial(0, 5).coeffs == (5,) and UniPoly.monomial(2) == T * T
    with pytest.raises(ValueError):
        UniPoly.monomial(-1)


def test_evaluation():
    p = UniPoly((1, -3, 1))
    assert p(0) == 1
    assert p(1) == -1
    assert p(2) == -1
    assert p(-1) == 5


def test_render():
    assert str(UniPoly((1, -3, 1))) == "1 - 3*t + t^2"
    assert str(UniPoly()) == "0"
    assert str(T) == "t"
    assert str(UniPoly((0, -1))) == "-t"
    assert str(UniPoly((-1, 0, -2))) == "-1 - 2*t^2"


def test_ring_coerce_grid():
    # Z keeps an int and reads a bool as its int
    for value, expected in ((7, 7), (True, 1), (-3, -3)):
        c = INTEGER_RING.coerce(value)
        assert c == expected and type(c) is int
    # Z[t] keeps a UniPoly itself and makes an index a constant
    p = UniPoly((1, 2))
    assert POLY_RING.coerce(p) is p
    for value, expected in ((3, (3,)), (True, (1,)), (0, ())):
        c = POLY_RING.coerce(value)
        assert type(c) is UniPoly and c.coeffs == expected
        assert all(type(x) is int for x in c.coeffs)
    for ring in (INTEGER_RING, POLY_RING):
        for value in (1.5, "3", None):
            with pytest.raises(TypeError):
                ring.coerce(value)
    # a polynomial is not an integer
    for value in (p, UniPoly((3,)), UniPoly()):
        with pytest.raises(TypeError):
            INTEGER_RING.coerce(value)


def test_immutability():
    p = UniPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)

    # the ring descriptors are plain tuples (name, zero, one, coerce, div)
    assert INTEGER_RING._fields == ("name", "zero", "one", "coerce", "div")
    assert INTEGER_RING == ("ZZ", 0, 1, INTEGER_RING.coerce, INTEGER_RING.div)
    for field in INTEGER_RING._fields:
        with pytest.raises(AttributeError):
            setattr(INTEGER_RING, field, 2)
