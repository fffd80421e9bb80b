import itertools
from collections.abc import Iterator

import pytest

from catalan_hankel import (
    UniPoly,
    catalan_conv,
    enumerate_paths,
    narayana_conv,
    path_weight_sum,
    path_weight_sum_table,
    paths,
    verify,
)
from catalan_hankel.verify import path_weight_reports
from oracles import path_heights, path_weight


def brute_force_paths(length: int) -> dict[int, list]:
    """Every non-negative path of the given length as (heights, weight),
    keyed by end height, in the order ``itertools.product`` makes the step
    sequences: lexicographic with up before down."""
    by_height: dict[int, list] = {}
    for steps in itertools.product((1, -1), repeat=length):
        try:
            heights = path_heights(steps)
        except ValueError:
            continue
        end = heights[-1] if heights else 0
        by_height.setdefault(end, []).append((heights, path_weight(steps)))
    return by_height


def walk(length: int, height: int) -> list:
    return [
        (heights, UniPoly.monomial(odd_downs))
        for heights, odd_downs in enumerate_paths(length, height)
    ]


def test_enumerate_small():
    assert list(enumerate_paths(0, 0)) == [((), 0)]
    assert list(enumerate_paths(1, 1)) == [((1,), 0)]
    assert list(enumerate_paths(1, 0)) == []
    assert list(enumerate_paths(3, 0)) == []
    assert list(enumerate_paths(4, 0)) == [((1, 2, 1, 0), 1), ((1, 0, 1, 0), 0)]


def test_enumeration_matches_brute_force_in_order():
    for length in range(15):
        by_height = brute_force_paths(length)
        for height in range(length + 2):
            assert walk(length, height) == by_height.get(height, []), (length, height)


def test_enumeration_is_lazy():
    found = enumerate_paths(24, 0)
    assert isinstance(found, Iterator)
    assert [h for h, _ in itertools.islice(found, 3)] == [
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 10, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 10, 9, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
    ]


def test_enumeration_counts_are_catalan():
    for n in range(7):
        assert sum(1 for _ in enumerate_paths(2 * n, 0)) == catalan_conv(1, n)


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
        by_height = brute_force_paths(length)
        for height in range(length + 1):
            total = UniPoly()
            for _, weight in by_height.get(height, []):
                total = total + weight
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
        assert path_weight_sum(2 * n, 0) == narayana_conv(1, n)


def test_weight_identity_reports():
    reports = path_weight_reports(15, 6)
    assert all(r.ok for r in reports), [str(r) for r in reports if not r.ok]
    identities = {
        (r.params["k"], r.params["n"]): r
        for r in reports if r.check == "paths/weight-identity"
    }
    # every (k, n) with 2n + k - 1 <= 15
    assert sorted(identities) == [
        (k, n) for k in range(1, 17) for n in range(8) if 2 * n + k - 1 <= 15
    ]
    r = identities[3, 2]
    assert r.params["length"] == 6
    assert r.rhs == narayana_conv(3, 2)
    assert r.lhs == path_weight_sum(6, 2)


def test_weight_reports_walk_each_path_set_once(monkeypatch):
    walks, series = [], []
    mixed_powers = verify.mixed_powers

    def counting_sum(length, height):
        walks.append((length, height))
        return path_weight_sum(length, height)

    def counting_powers(k_max, order):
        series.append((k_max, order))
        return mixed_powers(k_max, order)

    for module in (paths, verify):
        monkeypatch.setattr(module, "path_weight_sum", counting_sum)
    monkeypatch.setattr(verify, "mixed_powers", counting_powers)
    reports = path_weight_reports(15, 6)
    # 72 identities and 91 table cells read 116 distinct (length, height)
    assert len(reports) == 72 + 91
    assert len(walks) == len(set(walks)) == 116
    assert series == [(16, 8)]


def test_argument_validation():
    with pytest.raises(ValueError):
        enumerate_paths(-1, 0)
    with pytest.raises(ValueError):
        path_weight_sum(4, -2)
