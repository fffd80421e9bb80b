import json

import pytest

from catalan_hankel import CheckReport, Series, INTEGER_RING, POLY_RING, UniPoly
from catalan_hankel.report import dumps, render_value


def test_report_decides():
    good = CheckReport("demo", {"n": 1}, 5, 5)
    bad = CheckReport("demo", {"n": 2}, 5, -5)
    assert good.ok and good.status == "pass"
    assert not bad.ok and bad.status == "fail"


def test_report_verdict_is_not_an_argument():
    with pytest.raises(TypeError):
        CheckReport("c", {}, 5, -5, ok=True)
    with pytest.raises(TypeError):
        CheckReport(check="c", params={}, ok=True, lhs=5, rhs=-5)
    # reports compare by identity, as two separate checks of equal values
    assert CheckReport("c", {}, 5, 5) != CheckReport("c", {}, 5, 5)


def test_report_compares_series_as_built():
    long, short = Series(INTEGER_RING, [1, 2, 3, 4]), Series(INTEGER_RING, [1, 2])
    # a series against its own prefix differs, in either argument order
    r = CheckReport("demo", {}, long, short)
    assert not r.ok and r.status == "fail"
    assert not CheckReport("demo", {}, short, long).ok
    # the report keeps the sides it was given, and prints both orders
    assert r.lhs is long and r.rhs is short
    line = json.loads(r.to_json())
    assert (line["lhs"]["order"], line["rhs"]["order"]) == (4, 2)
    assert CheckReport("demo", {}, long, Series(INTEGER_RING, [1, 2, 3, 4])).ok
    # a series against a non-series is compared as it is, and differs
    assert not CheckReport("demo", {}, short, 1).ok


def test_report_json_shape():
    r = CheckReport("demo", {"k": 2}, UniPoly((1, -1)), UniPoly((1, -1)))
    line = r.to_json()
    assert json.loads(line) == {
        "check": "demo",
        "params": {"k": 2},
        "status": "pass",
        "lhs": [1, -1],
        "rhs": [1, -1],
    }
    assert line == '{"check":"demo","params":{"k":2},"status":"pass","lhs":[1,-1],"rhs":[1,-1]}'


def test_dumps_forms():
    def encoded(v):
        return json.loads(dumps(v))

    assert encoded(7) == 7
    assert encoded(UniPoly((1, 0, -2))) == [1, 0, -2]
    assert encoded([1, UniPoly((2,))]) == [1, [2]]
    s = Series(INTEGER_RING, [1, 2])
    assert encoded(s) == {"order": 2, "coeffs": [1, 2]}
    p = Series(POLY_RING, [UniPoly((1,)), UniPoly((0, 1))])
    assert encoded(p) == {"order": 2, "coeffs": [[1], [0, 1]]}
    assert encoded(Series(INTEGER_RING, [])) == {"order": 0, "coeffs": []}
    # UniPoly keeps a bool coefficient as given; str and dumps read it as its int
    assert str(UniPoly((1, True))) == "1 + t" and dumps(UniPoly((1, True))) == "[1,1]"
    with pytest.raises(TypeError):
        dumps(object())


def test_render_value_forms():
    assert render_value(7) == "7"
    assert render_value(UniPoly((1, -3, 1))) == "1 - 3*t + t^2"
    assert render_value([1, 2]) == "[1, 2]"
    assert render_value([UniPoly((1, 1)), UniPoly((0, -1))]) == "[1 + t, -t]"
    s = Series(INTEGER_RING, [1, 2])
    assert render_value(s) == "[1, 2] + O(x^2)"


def test_str_contains_both_sides():
    r = CheckReport("demo", {"n": 3}, UniPoly((0, 1)), 0)
    text = str(r)
    assert "fail" in text and "t" in text and "n=3" in text
