import inspect

import pytest

from catalan_hankel import Series, UniPoly, families, hankel
from catalan_hankel.verify import (
    COMPANION_T_TABLE,
    DEFAULT_SEED,
    check_corollaries,
    check_reciprocal_duality,
    check_series_identities,
    check_shift_theorem,
    cubic_rows,
    even_support_rows,
    even_support_t_rows,
    narayana_unit_rows,
    odd_support_rows,
    path_weight_reports,
    quartic_rows,
    random_duality_reports,
    run_suite,
    structured_duality_reports,
    unit_det_rows,
)

from oracles import catalan_by_recurrence, list_power


def assert_all_pass(reports):
    failures = [str(r) for r in reports if not r.ok]
    assert not failures, "\n".join(failures)


def test_duality_trivial_series():
    # s = 1: every instance must pass with both sides in {-1, 0, 1}
    for shift in range(4):
        for size in range(1, 5):
            r = check_reciprocal_duality([1], shift, size)
            assert r.ok, str(r)


def test_duality_validation():
    # an empty list reads as constant 0, refused by the reciprocal
    with pytest.raises(ValueError, match="reciprocal requires constant coefficient 1"):
        check_reciprocal_duality([], 0, 1)
    with pytest.raises(ValueError):
        check_reciprocal_duality([2, 1], 0, 1)
    with pytest.raises(ValueError):
        check_reciprocal_duality([1, 1], -1, 1)
    with pytest.raises(ValueError):
        check_reciprocal_duality([1, 1], 0, 0)


def test_duality_random_and_structured():
    assert_all_pass(random_duality_reports(count=20, seed=123))
    assert_all_pass(structured_duality_reports(power_max=3, shift_max=2, size_max=4))


def test_duality_polynomial_coefficients():
    t = UniPoly((0, 1))
    coeffs = [1, 1 + t, t, UniPoly((2,)), 1 - t, t * t, 1, t, 1 + t]
    r = check_reciprocal_duality(coeffs, 1, 3)
    assert r.ok, str(r)


def test_shift_theorems_small():
    for k in (1, 2):
        for m in (0, 1, 2):
            assert_all_pass(check_shift_theorem("even-conv", k, m, n_max=4))
            assert_all_pass(check_shift_theorem("odd-conv", k, m, n_max=4))
            assert_all_pass(check_shift_theorem("even-conv-t", k, m, n_max=3))
            if m >= 1:
                assert_all_pass(check_shift_theorem("odd-conv-t", k, m, n_max=3))


@pytest.mark.parametrize(
    "name, fn, odd",
    [
        ("even-conv", "catalan_conv", 0),
        ("odd-conv", "catalan_conv", 1),
        ("even-conv-t", "narayana_conv", 0),
        ("odd-conv-t", "narayana_conv", 1),
    ],
)
def test_shift_theorem_reads_first_row_through_families(monkeypatch, name, fn, odd):
    # wrappers on the families module (as a tracer installs them) see every read
    reads = []
    orig = getattr(families, fn)

    def counting(k, n):
        reads.append((k, n))
        return orig(k, n)

    monkeypatch.setattr(families, fn, counting)
    k, m = 2, 2
    assert_all_pass(check_shift_theorem(name, k, m, n_max=1))
    back, top = 1 - k - m + odd, m + k - 1 - odd
    assert {(2 * k - odd, back + j) for j in range(top)} <= set(reads)
    # every family is zero at a negative index, so mark those entries to see
    # that the zero-row check reads the first row, entries back .. back+N-1
    def marker(n):
        return UniPoly((n,)) if fn == "narayana_conv" else n

    monkeypatch.setattr(families, fn, lambda k, n: marker(n) if n < 0 else orig(k, n))
    rows = [r.lhs for r in check_shift_theorem(name, k, m, n_max=1) if r.check == name + "/zero-row"]
    assert rows == [[marker(back + j) for j in range(N)] for N in range(1, top + 1)]


def test_odd_poly_theorem_rejects_m_zero():
    with pytest.raises(ValueError, match="needs m >= 1"):
        check_shift_theorem("odd-conv-t", 2, 0, n_max=4)


def test_theorem_validation():
    with pytest.raises(ValueError):
        check_shift_theorem("even-conv", 0, 1, n_max=6)
    for name in ("even-conv", "odd-conv", "even-conv-t", "odd-conv-t"):
        with pytest.raises(ValueError, match="m >= 0"):
            check_shift_theorem(name, 1, -1, n_max=4)
    with pytest.raises(ValueError, match="even-conv, odd-conv, even-conv-t, odd-conv-t"):
        check_shift_theorem("nope", 1, 1, 1)


def test_zero_range_reports_include_structure():
    reports = check_shift_theorem("even-conv", 2, 1, n_max=0)
    kinds = {r.check for r in reports}
    assert "even-conv/zero-row" in kinds
    assert "even-conv/vanishing" in kinds
    assert "even-conv/shift" in kinds


def test_duality_and_shift_theorem_overlap():
    # the same determinant facts reached by two independent routes
    assert_all_pass(check_shift_theorem("even-conv", 1, 1, n_max=3))
    assert_all_pass(
        structured_duality_reports(power_max=2, shift_max=1, size_max=4)
    )


def test_support_patterns():
    rows = unit_det_rows(size_max=8)
    for k in (1, 2, 3):
        rows += even_support_rows(k, size_max=14)
    for k in (1, 2):
        rows += odd_support_rows(k, size_max=14)
    for k in (1, 2, 3):
        rows += even_support_t_rows(k, mult_max=2)
    rows += narayana_unit_rows(size_max=6)
    reports = check_corollaries(rows)
    assert len(reports) == len(rows)
    assert_all_pass(reports)


def test_closed_forms():
    assert_all_pass(check_corollaries(quartic_rows(size_max=7) + cubic_rows(size_max=6)))


def test_theorems_at_larger_bounds():
    # The paper's closed forms are an independent oracle at sizes that
    # one elimination per size cannot reach in tier-1 time.
    reports = []
    for name in ("even-conv", "odd-conv"):
        reports += check_shift_theorem(name, 8, 6, 20)
    for name in ("even-conv-t", "odd-conv-t"):
        for k, m, n_max in ((5, 4, 12), (3, 2, 16)):
            reports += check_shift_theorem(name, k, m, n_max)
    reports += check_corollaries(
        quartic_rows(size_max=16)
        + narayana_unit_rows(size_max=20)
        + even_support_rows(4, size_max=60)
        + odd_support_rows(4, size_max=60)
    )
    assert len(reports) == 438
    assert_all_pass(reports)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("rows", [even_support_rows, odd_support_rows, even_support_t_rows])
def test_corollary_power_grids_need_k_at_least_one(rows, k):
    # power 2k + 1 is a valid family at k = 0, so that grid checks k itself
    with pytest.raises(ValueError):
        rows(k, 3)


def test_corollaries_eliminate_each_sweep_once(monkeypatch):
    sizes = []
    real = hankel.leading_minors

    def counting(ring, seq):
        sizes.append((len(seq) + 1) // 2)
        return real(ring, seq)

    monkeypatch.setattr(hankel, "leading_minors", counting)
    reports = run_suite("corollaries")
    assert_all_pass(reports)
    # 17 sweep calls before the rows, but the unit determinant of power 2 at
    # shift 0 and the even support at k = 1 are one sweep
    assert len(sizes) == 16
    assert sorted(sizes) == sorted(
        [12, 12, 24, 24, 24, 24, 24, 24, 24, 3, 6, 9, 8, 8, 8, 6]
    )


def test_series_identities_pass():
    reports = check_series_identities(order=10, k_max=5, seed=DEFAULT_SEED)
    assert_all_pass(reports)
    # every series side is built at the suite's order
    orders = {side.order for r in reports for side in (r.lhs, r.rhs) if isinstance(side, Series)}
    assert orders == {10}
    with pytest.raises(ValueError):
        check_series_identities(order=2, k_max=6, seed=DEFAULT_SEED)
    # 4 is the smallest accepted order
    assert_all_pass(check_series_identities(order=4, k_max=1, seed=DEFAULT_SEED))
    with pytest.raises(ValueError):
        check_series_identities(order=3, k_max=1, seed=DEFAULT_SEED)


def test_companion_table_is_exact():
    assert COMPANION_T_TABLE[6][3] == UniPoly((-1, 0, 0, -1))


def test_path_weight_suite():
    assert_all_pass(path_weight_reports(length_max=11, height_max=4))


BUILDERS = [
    random_duality_reports, structured_duality_reports, unit_det_rows,
    even_support_rows, odd_support_rows, even_support_t_rows, narayana_unit_rows,
    quartic_rows, cubic_rows, check_series_identities, path_weight_reports,
]


def test_builders_take_every_bound_explicitly():
    # the acceptance bounds are written once, in the entries of SUITES
    defaulted = [
        f"{builder.__name__}({p.name})"
        for builder in BUILDERS
        for p in inspect.signature(builder).parameters.values()
        if p.default is not p.empty
    ]
    assert defaulted == []


def test_run_suite_names():
    reports = run_suite("thm4")
    assert reports and all(r.ok for r in reports)
    # one named suite only: a full run is the caller's loop over SUITE_ORDER
    for name in ("nonsense", "all"):
        with pytest.raises(ValueError):
            run_suite(name)


def test_run_suite_seed_changes_random_cases():
    a = run_suite("lemma", seed=1)
    b = run_suite("lemma", seed=2)
    pa = [r.params["s"] for r in a if "index" in r.params]
    pb = [r.params["s"] for r in b if "index" in r.params]
    assert pa != pb
    assert_all_pass(a)
    assert_all_pass(b)


def test_structured_duality_uses_catalan_powers():
    reports = structured_duality_reports(power_max=2, shift_max=0, size_max=2)
    last = reports[-1]
    assert last.params["series"] == "catalan^2"
    coeffs = last.params["s"]
    assert coeffs == list_power(catalan_by_recurrence(len(coeffs)), 2)
