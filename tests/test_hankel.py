import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_hankel import (
    INTEGER_RING,
    POLY_RING,
    Family,
    UniPoly,
    catalan_conv,
    family_dets,
    hankel,
    leading_minors,
    narayana_conv,
)
from catalan_hankel.hankel import HankelMatrix, det_fraction_free, hankel_matrix
from catalan_hankel.report import dumps

from oracles import ZZ, ZZ_T, cofactor_det, per_size_det, sweep_minors

# Fixed-seed examples and no example database, so tier-1 replays exactly.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def rand_poly(rng, deg=2, bound=5):
    return UniPoly([rng.randint(-bound, bound) for _ in range(deg + 1)])


def windows(a):
    """The N rows of the Hankel matrix whose defining sequence a(0..2N-2)
    is ``a``: row i is the window of N values from a[i]."""
    n = (len(a) + 1) // 2
    return tuple(tuple(a[i : i + n]) for i in range(n))


def det(ring, a):
    return leading_minors(ring, a)[-1]


def oracle_det(rows, ops=ZZ):
    return sweep_minors(rows, ops)[-1]


def oracle_ops(ring):
    """The oracles' own arithmetic for ``ring``."""
    return ZZ_T if ring is POLY_RING else ZZ


def test_hankel_matrix_validation():
    # leading_minors reads the sequence, so it makes the checks.
    for ring in (INTEGER_RING, POLY_RING):
        for even in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError):
                leading_minors(ring, even)
        assert leading_minors(ring, ()) == [ring.one]
        assert type(leading_minors(ring, ())[0]) is type(ring.one)
    assert leading_minors(INTEGER_RING, (7,)) == [1, 7]
    assert leading_minors(INTEGER_RING, [1, 2, 3]) == [1, 1, -1]


def test_hankel_matrix_is_its_sequence():
    m = HankelMatrix(INTEGER_RING, (1, 2, 3))
    assert m.n == 2 and m.ring is INTEGER_RING and m.seq == (1, 2, 3)
    assert HankelMatrix(INTEGER_RING, ()).n == 0
    assert HankelMatrix(INTEGER_RING, (7,)).n == 1
    # The checks and the coercion live in leading_minors; the rows are
    # sliced by whoever prints them.
    assert not hasattr(m, "rows")
    assert "__post_init__" not in vars(HankelMatrix)
    assert m == (INTEGER_RING, (1, 2, 3))
    for field in ("ring", "seq"):
        with pytest.raises(AttributeError):
            setattr(m, field, ())


def test_matrix_json_with_polynomials():
    assert dumps(windows((1, 2, 3))) == "[[1,2],[2,3]]"
    assert windows(()) == () and windows((7,)) == ((7,),)
    rows = windows((UniPoly((1, 1)), UniPoly(), UniPoly((3,))))
    assert dumps(rows) == "[[[1,1],[]],[[],[3]]]"


def test_hankel_matrix_layout():
    m = hankel_matrix(INTEGER_RING, lambda n: catalan_conv(1, n), 0, 3)
    assert windows(m.seq) == ((1, 1, 2), (1, 2, 5), (2, 5, 14)) and m.ring is INTEGER_RING
    shifted = hankel_matrix(INTEGER_RING, lambda n: catalan_conv(1, n), -2, 3)
    assert windows(shifted.seq)[0] == (0, 0, 1)
    with pytest.raises(ValueError):
        hankel_matrix(INTEGER_RING, lambda n: 0, 0, -1)


def test_det_base_cases():
    assert oracle_det(()) == 1
    assert oracle_det(((7,),)) == 7
    assert oracle_det(((1, 2), (3, 4))) == -2
    assert det(INTEGER_RING, ()) == 1
    assert det(INTEGER_RING, (7,)) == 7
    assert det(INTEGER_RING, (1, 2, 3)) == -1


def test_minors_start_from_the_ring_one():
    one = UniPoly((1,))
    sweep = [narayana_conv(3, n) for n in range(-1, 6)]
    for d in (
        det(POLY_RING, ()),
        leading_minors(POLY_RING, sweep)[0],
        family_dets(Family("narayana-conv", 2), 0, 0)[0],
    ):
        assert type(d) is UniPoly and d == one
    assert type(det(INTEGER_RING, ())) is int


def test_matrix_values_live_in_its_ring():
    # An int is a constant of Z[t], so every minor is a UniPoly.
    minors = leading_minors(POLY_RING, (2,))
    assert minors == [UniPoly((1,)), UniPoly((2,))]
    assert all(type(d) is UniPoly for d in minors)
    minors = leading_minors(POLY_RING, (1, 2, 5))
    assert minors == [UniPoly((1,))] * 3
    assert all(type(d) is UniPoly for d in minors)
    # A bool is read as its int in both rings, so JSON prints 1, not true.
    minors = leading_minors(INTEGER_RING, (True,))
    assert minors == [1, 1] and [type(d) for d in minors] == [int, int]
    minors = leading_minors(POLY_RING, (True,))
    assert [d.coeffs for d in minors] == [(1,), (1,)]
    assert [type(d.coeffs[0]) for d in minors] == [int, int]
    # A polynomial is not an integer.
    for seq in ((UniPoly((0, 1)),), (1, UniPoly((2,)), 3)):
        with pytest.raises(TypeError):
            leading_minors(INTEGER_RING, seq)


def test_det_fraction_free_reads_the_full_size_minor():
    for ring in (INTEGER_RING, POLY_RING):
        d = det_fraction_free(HankelMatrix(ring, ()))
        assert d == ring.one and type(d) is type(ring.one)
    singular = HankelMatrix(INTEGER_RING, (1, 2, 4, 8, 16))
    assert det_fraction_free(singular) == INTEGER_RING.zero
    # Each last minor differs from the size-1 and the next-to-last ones.
    for family, size in ((Family("catalan-conv", 3), 3), (Family("narayana-conv", 3), 4)):
        m = hankel_matrix(family.ring, family.value, 0, size)
        assert m.n == size  # perfbench/tracer.py reads the size here
        d = det_fraction_free(m)
        minors = family_dets(family, 0, size)
        assert d == leading_minors(m.ring, m.seq)[-1] == minors[-1]
        assert d not in (minors[1], minors[-2])


def test_det_zero_pivot_row_swap():
    assert det(INTEGER_RING, (0, 1, 0)) == -1
    assert det(INTEGER_RING, (0, 0, 1, 0, 0)) == -1


def test_det_singular_exactly_zero():
    assert oracle_det(((1, 2, 3), (2, 4, 6), (1, 0, 1))) == 0
    t = UniPoly((0, 1))
    row = (1 + t, 2 * t, UniPoly((3,)))
    rows = (row, tuple(2 * e for e in row), (t, UniPoly((1,)), 1 + t))
    assert oracle_det(rows, ZZ_T) == UniPoly()
    # Hankel twins: geometric sequences give rank 1, arithmetic ones rank 2.
    assert det(INTEGER_RING, (1, 2, 4, 8, 16)) == 0
    assert det(INTEGER_RING, (1, 2, 3, 4, 5)) == 0
    powers = [UniPoly((1,))]
    for _ in range(4):
        powers.append(powers[-1] * (1 + t))
    d = det(POLY_RING, powers)
    assert type(d) is UniPoly and d == UniPoly()


def leading_blocks(rows):
    return [[list(row[:i]) for row in rows[:i]] for i in range(len(rows) + 1)]


def hankel_sequences(ring, entries, n_max):
    """Defining sequences of Hankel matrices of sizes 0..n_max.  Besides
    plain draws, they come with runs of leading zeros, as all zeros, and as isolated
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

    return st.integers(0, n_max).flatmap(sequences).map(tuple)


def square(entries, n_max):
    """General square matrices as plain row tuples, for the oracles."""
    return st.integers(0, n_max).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: tuple(map(tuple, rows)))
    )


def assert_det_matches_cofactor(general, ring, seq):
    """The sweep oracle on a general matrix and the library on a Hankel
    sequence, both against cofactor expansion."""
    ops = oracle_ops(ring)
    expected = [cofactor_det(block, ops) for block in leading_blocks(general)]
    assert sweep_minors(general, ops) == expected
    rows = windows(seq)
    assert det(ring, seq) == cofactor_det([list(r) for r in rows], ops)
    assert leading_minors(ring, seq) == [cofactor_det(block, ops) for block in leading_blocks(rows)]


DENSE_INT = st.integers(-9, 9)
DENSE_POLY = st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(UniPoly)


@PROPERTY
@given(square(DENSE_INT, 6), hankel_sequences(INTEGER_RING, DENSE_INT, 6))
def test_det_against_cofactor_oracle_int(m, h):
    assert_det_matches_cofactor(m, INTEGER_RING, h)


@PROPERTY
@given(square(DENSE_POLY, 4), hankel_sequences(POLY_RING, DENSE_POLY, 4))
def test_det_against_cofactor_oracle_poly(m, h):
    assert_det_matches_cofactor(m, POLY_RING, h)


def test_det_commutes_with_evaluation():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
        at_two = [[e(2) for e in row] for row in rows]
        assert oracle_det(rows, ZZ_T)(2) == oracle_det(at_two)
        seq = [rand_poly(rng) for _ in range(2 * n - 1)]
        assert det(POLY_RING, seq)(2) == det(INTEGER_RING, [e(2) for e in seq])


def test_unit_hankel_determinants():
    for n in range(11):
        assert family_dets(Family("catalan-conv", 1), 0, n)[-1] == 1
        assert family_dets(Family("catalan-conv", 1), 1, n)[-1] == 1
        assert family_dets(Family("catalan-conv", 2), 0, n)[-1] == 1


def test_narayana_det_power_pattern():
    narayana = Family("narayana-conv", 1)
    for n in range(7):
        for shift in (0, 1):
            assert family_dets(narayana, shift, n)[-1] == UniPoly.monomial(comb(n, 2))
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


def assert_minors_match_per_size(rows, ops, minors):
    """``minors`` of the matrix ``rows`` against one elimination per
    leading block, in value and type."""
    assert len(minors) == len(rows) + 1
    for i, block in enumerate(leading_blocks(rows)):
        expected = per_size_det(block, ops)
        assert minors[i] == expected and type(minors[i]) is type(expected), (i, rows)


def assert_library_minors_match_per_size(ring, seq):
    assert_minors_match_per_size(windows(seq), oracle_ops(ring), leading_minors(ring, seq))


def assert_library_minors_match_sweep(ring, seq):
    """``leading_minors(ring, seq)`` against the independent sweep oracle,
    in value and type; returns the minors."""
    minors, swept = leading_minors(ring, seq), sweep_minors(windows(seq), oracle_ops(ring))
    assert minors == swept and list(map(type, minors)) == list(map(type, swept))
    return minors


def test_leading_minors_match_sweep_catalan_grid():
    # sweep_minors is checked against per_size_det by the sparse tests, and
    # the Narayana grid below keeps per_size_det on family matrices.
    for k in range(1, 10):
        for shift in range(-6, 3):
            seq = [catalan_conv(k, n) for n in range(shift, shift + 59)]
            minors = assert_library_minors_match_sweep(INTEGER_RING, seq)
            assert family_dets(Family("catalan-conv", k), shift, 30) == minors


def test_leading_minors_match_per_size_narayana_grid():
    for k in range(1, 7):
        for shift in range(-3, 2):
            seq = [narayana_conv(k, n) for n in range(shift, shift + 17)]
            assert_library_minors_match_per_size(POLY_RING, seq)
            dets = family_dets(Family("narayana-conv", k), shift, 9)
            assert all(type(d) is UniPoly for d in dets)
            assert dets == leading_minors(POLY_RING, seq)


SPARSE_INT = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
SPARSE_POLY = st.lists(st.integers(-3, 3) | st.just(0), max_size=3).map(UniPoly)


@PROPERTY
@given(square(SPARSE_INT, 8), hankel_sequences(INTEGER_RING, SPARSE_INT, 8))
def test_leading_minors_match_per_size_sparse_int(m, h):
    assert_minors_match_per_size(m, ZZ, sweep_minors(m, ZZ))
    assert_library_minors_match_per_size(INTEGER_RING, h)


@PROPERTY
@given(square(SPARSE_POLY, 4), hankel_sequences(POLY_RING, SPARSE_POLY, 4))
def test_leading_minors_match_per_size_sparse_poly(m, h):
    assert_minors_match_per_size(m, ZZ_T, sweep_minors(m, ZZ_T))
    assert_library_minors_match_per_size(POLY_RING, h)


def assert_minors_match_every_oracle(ring, seq):
    minors = assert_library_minors_match_sweep(ring, seq)
    rows = windows(seq)
    assert_minors_match_per_size(rows, oracle_ops(ring), minors)
    for d, block in list(zip(minors, leading_blocks(rows)))[1:7]:
        expected = cofactor_det(block, oracle_ops(ring))
        assert d == expected and type(d) is type(expected)


@PROPERTY
@given(hankel_sequences(INTEGER_RING, SPARSE_INT, 10))
def test_hankel_minors_match_every_oracle_int(seq):
    assert_minors_match_every_oracle(INTEGER_RING, seq)


@PROPERTY
@given(hankel_sequences(POLY_RING, SPARSE_POLY, 5))
def test_hankel_minors_match_every_oracle_poly(seq):
    assert_minors_match_every_oracle(POLY_RING, seq)


def test_swap_zeroes_the_sizes_it_skips():
    # Column 0 has its first nonzero entry in row 3, so D(1..3) vanish.
    rows = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
    assert sweep_minors(rows, ZZ) == [1, 0, 0, 0, -1]
    # No nonzero entry below: every remaining minor is the ring's zero.
    z = UniPoly()
    rows = ((UniPoly((1,)), z, z), (z, z, z), (z, z, UniPoly((2,))))
    assert sweep_minors(rows, ZZ_T) == [1, UniPoly((1,)), z, z]
    # Hankel twins: leading zeros are a degree gap of the chain, and a
    # zero remainder ends it.
    assert leading_minors(INTEGER_RING, (0, 0, 0, 1, 0, 0, 0)) == [1, 0, 0, 0, 1]
    assert leading_minors(POLY_RING, (UniPoly((1,)), z, z, z, z)) == [1, UniPoly((1,)), z, z]


#: (family, k, shift, top) -> the chain's steps, summed remainder length
#: and exact divisions on that sweep.
CHAIN_WORK = {
    ("catalan-conv", 4, -2, 40): (37, 1369, 1371),
    ("catalan-conv", 7, 0, 30): (25, 721, 725),
    ("narayana-conv", 6, -2, 20): (6, 108, 122),
    ("narayana-conv", 5, 0, 14): (13, 169, 169),
}


def test_sweep_costs_one_elimination(monkeypatch):
    # The chain's work is pinned exactly, so a change that keeps every
    # minor but keeps a wider remainder or takes more steps fails here; a
    # change that lowers the work updates these pins.
    real_prem = hankel._pseudo_remainder
    work = [0, 0, 0]

    def counting_prem(*args):
        r = real_prem(*args)
        work[0] += 1
        work[1] += len(r)
        return r

    monkeypatch.setattr(hankel, "_pseudo_remainder", counting_prem)
    for (kind, k, shift, top), expected in CHAIN_WORK.items():
        family = Family(kind, k)

        def counting_div(a, b, div=family.ring.div):
            work[2] += 1
            return div(a, b)

        work[:] = [0, 0, 0]
        seq = hankel_matrix(family.ring, family.value, shift, top).seq
        minors = leading_minors(family.ring._replace(div=counting_div), seq)
        assert tuple(work) == expected, (kind, k, shift, top)
        assert minors == family_dets(family, shift, top)
    assert family_dets(Family("catalan-conv", 4), -2, 40)[:6] == [1, 0, 0, -1, -1, 2]


def test_hankel_matrix_reads_each_index_once():
    for shift in (-3, 0, 2):
        for size in range(6):
            calls = []

            def seq(m):
                calls.append(m)
                return catalan_conv(3, m)

            m = hankel_matrix(INTEGER_RING, seq, shift, size)
            assert calls == list(range(shift, shift + max(0, 2 * size - 1)))
            assert windows(m.seq) == tuple(
                tuple(catalan_conv(3, i + j + shift) for j in range(size))
                for i in range(size)
            )
