from catalan_hankel import CheckReport, Series, INTEGER_RING, POLY_RING, UniPoly
from catalan_hankel.report import encode_value, equal_report, render_value


def test_equal_report_decides():
    good = equal_report("demo", {"n": 1}, 5, 5)
    bad = equal_report("demo", {"n": 2}, 5, -5)
    assert good.ok and good.status == "pass"
    assert not bad.ok and bad.status == "fail"


def test_equal_report_compares_series_at_the_smaller_order():
    long, short = Series(INTEGER_RING, [1, 2, 3, 4]), Series(INTEGER_RING, [1, 2])
    r = equal_report("demo", {}, long, short)
    assert r.ok and r.lhs == r.rhs == short
    assert not equal_report("demo", {}, long, Series(INTEGER_RING, [1, 3])).ok


def test_report_json_shape():
    r = equal_report("demo", {"k": 2}, UniPoly((1, -1)), UniPoly((1, -1)))
    assert r.to_json() == {
        "check": "demo",
        "params": {"k": 2},
        "status": "pass",
        "lhs": [1, -1],
        "rhs": [1, -1],
    }


def test_encode_value_forms():
    assert encode_value(7) == 7
    assert encode_value(UniPoly((1, 0, -2))) == [1, 0, -2]
    assert encode_value([1, UniPoly((2,))]) == [1, [2]]
    s = Series(INTEGER_RING, [1, 2])
    assert encode_value(s) == {"order": 2, "coeffs": [1, 2]}
    p = Series(POLY_RING, [UniPoly((1,)), UniPoly((0, 1))])
    assert encode_value(p) == {"order": 2, "coeffs": [[1], [0, 1]]}
    assert encode_value(Series(INTEGER_RING, [])) == {"order": 0, "coeffs": []}


def test_render_value_forms():
    assert render_value(7) == "7"
    assert render_value(UniPoly((1, -3, 1))) == "1 - 3*t + t^2"
    assert render_value([1, 2]) == "[1, 2]"
    s = Series(INTEGER_RING, [1, 2])
    assert render_value(s) == "[1, 2] + O(x^2)"


def test_str_contains_both_sides():
    r = equal_report("demo", {"n": 3}, UniPoly((0, 1)), 0)
    text = str(r)
    assert "fail" in text and "t" in text and "n=3" in text
