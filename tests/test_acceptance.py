"""Acceptance gate: ten criteria, exact equality, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the line per
criterion; any mismatch is a hard failure (tolerance is zero everywhere).
"""

import random

from catalan_hankel import (
    INTEGER_RING,
    POLY_RING,
    Family,
    UniPoly,
    family_dets,
    leading_minors,
)
from catalan_hankel.verify import run_suite

from oracles import cofactor_det


def _criterion(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _pad(zeros, *tail):
    return (0,) * zeros + tail


# 1 -------------------------------------------------------------------------

GOLDEN_INT = {
    (4, -2): [1, 0, 0, -1, -1, 2, 2, -3, -3, 4, 4, -5],
    (4, 0): [1, 1, -2, -2, 3, 3, -4, -4, 5, 5, -6, -6],
    (3, -1): [1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0, 1],
    (3, 0): [1, 1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0],
}


def test_01_golden_integer_sequences():
    ok = True
    for (k, shift), expected in GOLDEN_INT.items():
        family = Family("catalan-conv", k)
        got = [family_dets(family, shift, n)[-1] for n in range(len(expected))]
        ok = ok and got == expected
    _criterion(1, "golden integer determinant sequences", ok)


# 2 -------------------------------------------------------------------------

GOLDEN_POLY = {
    (4, -2): [
        (1,),
        (),
        (),
        (-1,),
        _pad(2, -1),
        _pad(4, 1, 0, 1),
        _pad(8, 1, 0, 1),
        _pad(12, -1, 0, -1, 0, -1),
        _pad(18, -1, 0, -1, 0, -1),
        _pad(24, 1, 0, 1, 0, 1, 0, 1),
    ],
    (4, 0): [
        (1,),
        (1,),
        (-1, 0, -1),
        _pad(2, -1, 0, -1),
        _pad(4, 1, 0, 1, 0, 1),
        _pad(8, 1, 0, 1, 0, 1),
        _pad(12, -1, 0, -1, 0, -1, 0, -1),
    ],
    (3, 0): [
        (1,),
        (1,),
        (-1, 1),
        _pad(2, -2, 1),
        _pad(4, 1, -3, 1),
        _pad(8, 3, -4, 1),
        _pad(12, -1, 6, -5, 1),
    ],
    # first five straight from the table; the rest cross-checked through the
    # odd shift identity at (k, m) = (2, 1)
    (3, -1): [
        (1,),
        (),
        (-1,),
        _pad(2, -1),
        _pad(4, 1, -1),
        _pad(8, 2, -1),
        _pad(12, -1, 3, -1),
        _pad(18, -3, 4, -1),
    ],
}


def test_02_golden_polynomial_sequences():
    ok = True
    for (k, shift), expected in GOLDEN_POLY.items():
        family = Family("narayana-conv", k)
        got = [family_dets(family, shift, n)[-1].coeffs for n in range(len(expected))]
        ok = ok and got == list(expected)
    _criterion(2, "golden polynomial determinant sequences", ok)


# 3 -------------------------------------------------------------------------

def test_03_unit_determinants():
    ok = True
    for n in range(13):
        ok = ok and family_dets(Family("catalan-conv", 1), 0, n)[-1] == 1
        ok = ok and family_dets(Family("catalan-conv", 1), 1, n)[-1] == 1
        ok = ok and family_dets(Family("catalan-conv", 2), 0, n)[-1] == 1
    _criterion(3, "unit Hankel determinants up to size 12", ok)


# 4 -------------------------------------------------------------------------

def test_04_integer_shift_theorems():
    reports = run_suite("thm1") + run_suite("thm2")
    _criterion(4, f"integer shift theorems ({len(reports)} checks)", all(r.ok for r in reports))


# 5 -------------------------------------------------------------------------

def test_05_polynomial_shift_theorems():
    reports = run_suite("thm3") + run_suite("thm4")
    _criterion(5, f"polynomial shift theorems ({len(reports)} checks)", all(r.ok for r in reports))


# 6 -------------------------------------------------------------------------

def test_06_support_patterns_and_closed_forms():
    reports = run_suite("corollaries")
    _criterion(
        6, f"support patterns and closed forms ({len(reports)} checks)", all(r.ok for r in reports)
    )


# 7 -------------------------------------------------------------------------

def test_07_reciprocal_duality():
    reports = run_suite("lemma", seed=7)
    randoms = sum(1 for r in reports if "index" in r.params)
    _criterion(
        7,
        f"reciprocal duality ({randoms} random + {len(reports) - randoms} structured)",
        all(r.ok for r in reports) and randoms == 50,
    )


# 8 -------------------------------------------------------------------------

def test_08_path_weight_identity():
    reports = run_suite("prop1")
    _criterion(8, f"weighted path identity ({len(reports)} checks)", all(r.ok for r in reports))


# 9 -------------------------------------------------------------------------

def test_09_series_identity_suite():
    reports = run_suite("identities")
    table_checks = [r for r in reports if r.check == "identity/companion-t-table"]
    _criterion(
        9,
        f"series identity suite ({len(reports)} checks)",
        all(r.ok for r in reports) and len(table_checks) == 6,
    )


# 10 ------------------------------------------------------------------------

def _hankel_rows(a, n):
    return [a[i : i + n] for i in range(n)]


def _make_singular(a, n):
    """Period n - 1, so the last row of the Hankel matrix repeats the first."""
    return [a[i % (n - 1)] for i in range(2 * n - 1)]


def test_10_determinant_oracle_agreement():
    ok = True
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 5)
        a = [rng.randint(-9, 9) for _ in range(max(0, 2 * n - 1))]
        if n >= 2 and rng.random() < 0.2:
            a = _make_singular(a, n)  # exact singular case
        ok = ok and leading_minors(INTEGER_RING, a)[-1] == cofactor_det(_hankel_rows(a, n))
    for _ in range(100):
        n = rng.randint(1, 4)
        a = [UniPoly([rng.randint(-5, 5) for _ in range(3)]) for _ in range(2 * n - 1)]
        if n >= 2 and rng.random() < 0.2:
            a = _make_singular(a, n)
        ok = ok and leading_minors(POLY_RING, a)[-1] == cofactor_det(_hankel_rows(a, n))
    _criterion(10, "Hankel minors vs cofactor determinants", ok)
