import pytest

from catalan_hankel import (
    EnumerationCapError,
    UniPoly,
    catalan,
    check_path_weight_identity,
    enumerate_paths,
    narayana,
    narayana_conv,
    path_heights,
    path_weight,
    path_weight_sum,
    path_weight_sum_table,
)


def test_enumerate_small():
    assert enumerate_paths(0, 0) == [()]
    assert enumerate_paths(1, 1) == [(1,)]
    assert enumerate_paths(1, 0) == []
    assert enumerate_paths(3, 0) == []
    paths = enumerate_paths(4, 0)
    assert paths == [(1, 1, -1, -1), (1, -1, 1, -1)]


def test_enumeration_counts_are_catalan():
    for n in range(7):
        assert len(enumerate_paths(2 * n, 0)) == catalan(n)


def test_path_heights_and_validation():
    assert path_heights((1, 1, -1, -1)) == (1, 2, 1, 0)
    with pytest.raises(ValueError):
        path_heights((1, -1, -1))
    with pytest.raises(ValueError):
        path_heights((1, 2))


def test_path_weight_counts_odd_landings():
    assert path_weight((1, 1, -1, -1)) == UniPoly((0, 1))
    assert path_weight((1, -1, 1, -1)) == UniPoly((1,))
    assert path_weight((1, 1, 1, -1)) == UniPoly((1,))
    assert path_weight((1, 1, -1, 1)) == UniPoly((0, 1))
    assert path_weight(()) == UniPoly((1,))
    with pytest.raises(ValueError):
        path_weight((1, -1, -1))


def test_weight_sum_matches_enumeration():
    for length in range(9):
        for height in range(length + 1):
            total = UniPoly()
            for p in enumerate_paths(length, height):
                total = total + path_weight(p)
            assert path_weight_sum(length, height) == total


def test_weight_sum_recurrence_agreement():
    for length in range(13):
        for height in range(min(length, 6) + 1):
            assert path_weight_sum(length, height) == path_weight_sum_table(
                length, height
            )
    assert path_weight_sum_table(3, 5) == UniPoly() == path_weight_sum(3, 5)


def test_closed_paths_give_narayana():
    # even length, end at 0: the weight sum is the Narayana polynomial
    for n in range(7):
        assert path_weight_sum(2 * n, 0) == narayana(n)


def test_weight_identity_reports():
    for k in range(1, 6):
        for n in range(4):
            if 2 * n + k - 1 <= 15:
                r = check_path_weight_identity(k, n)
                assert r.ok, str(r)
    assert check_path_weight_identity(3, 2).rhs == narayana_conv(3, 2)


def test_cap_enforced():
    with pytest.raises(EnumerationCapError):
        enumerate_paths(23, 1)
    with pytest.raises(EnumerationCapError):
        path_weight_sum(10, 0, cap=9)
    with pytest.raises(EnumerationCapError):
        check_path_weight_identity(2, 8, cap=10)
    assert path_weight_sum(10, 0, cap=10) == path_weight_sum_table(10, 0)


def test_argument_validation():
    with pytest.raises(ValueError):
        enumerate_paths(-1, 0)
    with pytest.raises(ValueError):
        path_weight_sum(4, -2)
    with pytest.raises(ValueError):
        check_path_weight_identity(0, 1)
    with pytest.raises(ValueError):
        check_path_weight_identity(1, -1)
