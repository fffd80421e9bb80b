"""Mechanical verification of the determinant and series identities.

Every checker recomputes both sides of one identity instance through the
exact engines (fraction-free determinants, truncated series, closed forms)
and returns one :class:`CheckReport` per parameter tuple.  The checkers and
row builders take their bounds as required arguments; :data:`SUITES` names
each suite and writes its acceptance bounds, once.  A suite is a flat list
of reports in deterministic order; it passes iff every report passes.
Randomized instances draw from a seeded generator so failures replay from
the recorded parameters alone.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable, Sequence
from math import comb

from .polyring import INTEGER_RING, POLY_RING, T, UniPoly
from .series import Series
from .families import (
    CATALAN_CONV,
    NARAYANA_CONV,
    Family,
    catalan_conv,
    catalan_series,
    companion_poly,
    companion_poly_t,
    lucas,
    mixed_powers,
    narayana_conv,
    narayana_series,
    narayana_series_weighted,
)
from .hankel import det_fraction_free, family_dets, hankel_matrix
from .paths import path_weight_sum, path_weight_sum_table
from .report import CheckReport

DEFAULT_SEED = 7


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


# ---------------------------------------------------------------------------
# Reciprocal duality: det(s_{i+j-M}) of size N+M+1 against the complementary
# Hankel determinant of the reciprocal series, size N, shifted by M+2.

def check_reciprocal_duality(
    s_coeffs: Sequence, shift: int, size: int, extra: dict | None = None
) -> CheckReport:
    """One duality instance for a series with constant coefficient 1.

    The coefficient list is read as the complete support of the series;
    both determinants only consult indices up to 2*size + shift, so callers
    wanting a specific series must supply at least that many coefficients.
    An empty list reads as constant 0 and gets the reciprocal's error.
    """
    if shift < 0:
        raise ValueError(f"shift M={shift} must be >= 0")
    if size < 1:
        raise ValueError(f"size N={size} must be >= 1")
    ring = POLY_RING if any(isinstance(c, UniPoly) for c in s_coeffs) else INTEGER_RING
    order = 2 * size + shift + 1
    s = Series(ring, s_coeffs, max(order, len(s_coeffs)))
    recip = s.reciprocal()
    lhs = det_fraction_free(hankel_matrix(ring, s.coefficient, -shift, size + shift + 1))
    rhs_det = det_fraction_free(hankel_matrix(ring, recip.coefficient, shift + 2, size))
    rhs = _sign(size + comb(shift + 1, 2)) * rhs_det
    params = {"shift": shift, "size": size, "s": list(s.coeffs[: len(s_coeffs)])}
    if extra:
        params = {**extra, **params}
    return CheckReport("duality", params, lhs, rhs)


def random_duality_reports(count: int, seed: int) -> list[CheckReport]:
    """Seeded random integer series, constant coefficient pinned to 1: shift
    0..3, size 1..5, coefficients in -9..9."""
    rng = random.Random(seed)
    reports = []
    for i in range(count):
        shift = rng.randint(0, 3)
        size = rng.randint(1, 5)
        coeffs = [1] + [rng.randint(-9, 9) for _ in range(2 * size + shift)]
        reports.append(check_reciprocal_duality(coeffs, shift, size, extra={"index": i}))
    return reports


def structured_duality_reports(power_max: int, shift_max: int, size_max: int) -> list[CheckReport]:
    """Duality across powers of the Catalan series."""
    return [
        check_reciprocal_duality(
            [catalan_conv(k, n) for n in range(2 * size + shift + 1)],
            shift, size, extra={"series": f"catalan^{k}"},
        )
        for k in range(1, power_max + 1)
        for shift in range(shift_max + 1)
        for size in range(1, size_max + 1)
    ]


# ---------------------------------------------------------------------------
# Backward-shift theorems.  The paper proves all four (even and odd
# convolution powers, each over Z and over Z[t]) with one method, so one
# checker runs them from a table: a vanishing range whose matrices must carry
# an all-zero first row, then a shift identity between the far-backward and
# the forward determinant.  The vanishing range and the far-backward sizes
# are read from one sweep.

SHIFT_THEOREMS: dict[str, tuple[str, int]] = {
    # report-id prefix: (family kind, odd)
    "even-conv": (CATALAN_CONV, 0),
    "odd-conv": (CATALAN_CONV, 1),
    "even-conv-t": (NARAYANA_CONV, 0),
    "odd-conv-t": (NARAYANA_CONV, 1),
}


def check_shift_theorem(name: str, k: int, m: int, n_max: int) -> list[CheckReport]:
    """One shift theorem of :data:`SHIFT_THEOREMS` for power K = 2k - odd.

    The back shift 1-k-m+odd vanishes with an all-zero first row for sizes
    1..top, top = m+k-1-odd; then size n+top+1 at the back shift equals
    (-1)^binom(top+1, 2) times size n at the forward shift 1-k+m, with an
    extra factor t^(kn) over Z[t].  The odd Z[t] theorem needs m >= 1: the
    m = 0 instance is false (the companion polynomial's top coefficient
    only vanishes at t = 1), and the checker refuses to state it.
    """
    try:
        kind, odd = SHIFT_THEOREMS[name]
    except KeyError:
        raise ValueError(f"unknown shift theorem {name!r}; choose from "
                         f"{', '.join(SHIFT_THEOREMS)}") from None
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    K = 2 * k - odd
    family = Family(kind, K)
    polynomial = family.ring is POLY_RING
    if polynomial and odd and m < 1:
        raise ValueError("the odd polynomial shift identity needs m >= 1")
    back = 1 - k - m + odd
    top = m + k - 1 - odd
    offset = top + 1
    sign = _sign(comb(top + 1, 2))
    zero = family.ring.zero
    reports = []
    back_dets = family_dets(family, back, max(top, n_max + offset))
    first_row = [family.value(back + j) for j in range(top)]
    for N in range(1, top + 1):
        params = {"k": k, "m": m, "N": N}
        # An all-zero first row of the swept matrix is strictly stronger
        # than a vanishing minor, so both are asserted separately.
        reports += [
            CheckReport(name + "/zero-row", params, first_row[:N], [zero] * N),
            CheckReport(name + "/vanishing", params, back_dets[N], zero),
        ]
    fwd_dets = family_dets(family, 1 - k + m, max(n_max, 0))
    for n in range(n_max + 1):
        factor = UniPoly.monomial(k * n, sign) if polynomial else sign
        lhs, rhs = back_dets[n + offset], factor * fwd_dets[n]
        reports.append(CheckReport(name + "/shift", {"k": k, "m": m, "n": n}, lhs, rhs))
    return reports


# ---------------------------------------------------------------------------
# Corollaries.  Each one is a Hankel sweep of a convolution power at a
# backward shift whose D(N) equals a closed form in N: outside sparse
# families of sizes the determinants vanish, on the support they are signed
# monomials or short polynomials.  A corollary is a list of rows
# (report id, params, sweep, N, expected) with sweep = (family, shift), and
# one loop, check_corollaries, reads them all.

def check_corollaries(rows: Sequence[tuple]) -> list[CheckReport]:
    """One report per row, in row order: D(N) of the row's sweep against its
    expected value.  Each distinct sweep runs once, at the largest
    N its rows read, so rows of different sweeps may interleave."""
    tops: dict = {}
    for _, _, sweep, N, _ in rows:
        tops[sweep] = max(N, tops.get(sweep, N))
    dets = {sweep: family_dets(*sweep, top) for sweep, top in tops.items()}
    return [
        CheckReport(check, params, dets[sweep][N], expected)
        for check, params, sweep, N, expected in rows
    ]


def unit_det_rows(size_max: int) -> list[tuple]:
    """The three classical unit determinants: Catalan at shifts 0 and 1,
    and the second convolution power at shift 0, all identically 1."""
    return [
        ("unit-det", {"K": K, "shift": shift, "n": n}, (Family(CATALAN_CONV, K), shift), n, 1)
        for K, shift in ((1, 0), (1, 1), (2, 0))
        for n in range(size_max + 1)
    ]


def even_support_rows(k: int, size_max: int) -> list[tuple]:
    """Power 2k at back shift 1-k: (-1)^(n*binom(k,2)) at sizes kn, else 0."""
    sweep = (Family(CATALAN_CONV, 2 * k), 1 - k)
    return [
        ("even-conv/support", {"k": k, "N": N}, sweep, N,
         0 if N % k else _sign(N // k * comb(k, 2)))
        for N in range(size_max + 1)
    ]


def odd_support_rows(k: int, size_max: int) -> list[tuple]:
    """Power 2k+1 at shifts -k and 1-k: periodic support mod 2k+1.

    Shift -k is nonzero at remainders 0 and k+1; shift 1-k at remainders
    0 and k; signs walk with (-1)^(k) per period plus a binomial offset at
    the second residue.  The rows run size-major over the two shifts.
    """
    if k < 1:  # the family of power 2k + 1 alone would accept k = 0
        raise ValueError("need k >= 1")
    family = Family(CATALAN_CONV, 2 * k + 1)
    rows = []
    for N in range(size_max + 1):
        q, r = divmod(N, 2 * k + 1)
        for shift, second in ((-k, k + 1), (1 - k, k)):
            params = {"k": k, "shift": shift, "N": N}
            expected = _sign(k * q + comb(r, 2)) if r in (0, second) else 0
            rows.append(("odd-conv/support", params, (family, shift), N, expected))
    return rows


def even_support_t_rows(k: int, mult_max: int) -> list[tuple]:
    """Power 2k over Z[t] at back shift 1-k: the size-kn determinant is
    (-1)^(n*binom(k,2)) * t^(k^2*binom(n,2)); other sizes vanish."""
    sweep = (Family(NARAYANA_CONV, 2 * k), 1 - k)
    check = "even-conv-t/support"
    support = [
        (check, {"k": k, "n": n, "N": k * n}, sweep, k * n,
         UniPoly.monomial(k * k * comb(n, 2), _sign(n * comb(k, 2))))
        for n in range(mult_max + 1)
    ]
    return support + [
        (check, {"k": k, "N": N}, sweep, N, UniPoly())
        for N in range(1, k * mult_max + 1)
        if N % k
    ]


def narayana_unit_rows(size_max: int) -> list[tuple]:
    """Narayana Hankel determinants at shifts 0 and 1 equal t^binom(n,2)."""
    return [
        ("narayana-hankel/power", {"shift": shift, "n": n},
         (Family(NARAYANA_CONV, 1), shift), n, UniPoly.monomial(comb(n, 2)))
        for shift in (0, 1)
        for n in range(size_max + 1)
    ]


def quartic_rows(size_max: int) -> list[tuple]:
    """Fourth power over Z[t] at shift 0: alternating sign, a t-power, and
    an even geometric factor 1 + t^2 + ... + t^(2n)."""
    sweep = (Family(NARAYANA_CONV, 4), 0)
    rows = []
    for N in range(size_max + 1):
        n, r = divmod(N, 2)
        geometric = UniPoly([1, 0] * n + [1])
        expected = _sign(n) * UniPoly.monomial(2 * n * (n - 1 + r)) * geometric
        rows.append(("closed-form/quartic", {"N": N}, sweep, N, expected))
    return rows


def cubic_rows(size_max: int) -> list[tuple]:
    """Third power over Z[t] at shift 0: t^binom(N,2) times an alternating
    binomial tail in 1/t."""
    sweep = (Family(NARAYANA_CONV, 3), 0)
    rows = []
    for N in range(size_max + 1):
        top = comb(N, 2)
        coeffs = [0] * (top + 1)
        for j in range(N // 2 + 1):
            coeffs[top - j] += _sign(j) * comb(N - j, j)
        rows.append(("closed-form/cubic", {"N": N}, sweep, N, UniPoly(coeffs)))
    return rows


# ---------------------------------------------------------------------------
# Series and polynomial identities.

COMPANION_INT_TABLE = {
    1: UniPoly((1,)),
    2: UniPoly((1, -2)),
    3: UniPoly((1, -3)),
    4: UniPoly((1, -4, 2)),
    5: UniPoly((1, -5, 5)),
    6: UniPoly((1, -6, 9, -2)),
}

COMPANION_T_TABLE = {
    1: (UniPoly((1,)), UniPoly((-1, 1))),
    2: (UniPoly((1,)), UniPoly((-1, -1))),
    3: (UniPoly((1,)), UniPoly((-2, -1)), UniPoly((1, -1))),
    4: (UniPoly((1,)), UniPoly((-2, -2)), UniPoly((1, 0, 1))),
    5: (UniPoly((1,)), UniPoly((-3, -2)), UniPoly((3, 1, 1)), UniPoly((-1, 1))),
    6: (UniPoly((1,)), UniPoly((-3, -3)), UniPoly((3, 3, 3)), UniPoly((-1, 0, 0, -1))),
}


def check_series_identities(order: int, k_max: int, seed: int) -> list[CheckReport]:
    """The generating-function identity suite at one truncation order.

    Covers: the Catalan quadratic fixed point and reciprocal complement;
    Lucas power sums, doubling, and the reciprocal-power identity; the
    affine and quadratic relations tying the two Narayana series together;
    the interleaving and coefficient recurrences of mixed powers; the
    square-power index shift; the companion reciprocal identity with its
    base case, t = 1 collapse, and both printed tables.  Each identity is a
    row (report id, params, lhs, rhs); both series sides are built at
    ``order``.
    """
    if order < 4:
        raise ValueError("order too small to say anything")
    c = catalan_series(order)
    c0 = narayana_series(order)
    c1 = narayana_series_weighted(order)
    mixed = mixed_powers(2 * k_max + 1, order)
    ks = range(1, k_max + 1)

    def poly(ring, coeffs) -> Series:
        return Series(ring, coeffs, order)

    xc, inv = c.shift(1), c.reciprocal()
    rows = [
        ("identity/catalan-quadratic", {}, (c * c).shift(1) + poly(INTEGER_RING, [1]), c),
        ("identity/catalan-reciprocal", {}, xc + inv, poly(INTEGER_RING, [1])),
    ]
    rng = random.Random(seed)
    pairs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(8)]
    rows += [
        ("identity/lucas-power-sum", {"x": x, "y": y, "n": n},
         lucas(n, x + y, -x * y), x ** n + y ** n)
        for x, y in pairs
        for n in range(11)
    ]
    rows += [
        ("identity/lucas-doubling", {"k": k},
         companion_poly(2 * k), lucas(k, UniPoly((1, -2)), UniPoly((0, 0, -1))))
        for k in ks
    ]
    xc_k = inv_k = poly(INTEGER_RING, [1])
    for k in ks:
        xc_k, inv_k = xc_k * xc, inv_k * inv
        rows.append(("identity/lucas-reciprocal", {"k": k}, xc_k + inv_k,
                     poly(INTEGER_RING, companion_poly(k).coeffs)))
    one_t = poly(POLY_RING, [1])
    rows += [
        ("identity/narayana-affine", {}, c1, c0 * T + poly(POLY_RING, [1 - T])),
        ("identity/narayana-quadratic", {"which": "weighted"}, (c0 * c1 * T).shift(1) + one_t, c1),
        ("identity/narayana-quadratic", {"which": "plain"}, (c0 * c1).shift(1) + one_t, c0),
    ]
    for k in ks:
        rows += [
            ("identity/interleave-odd", {"k": k},
             mixed[2 * k - 1], mixed[2 * k - 2] + mixed[2 * k].shift(1)),
            ("identity/interleave-even", {"k": k},
             mixed[2 * k], mixed[2 * k - 1] + (mixed[2 * k + 1] * T).shift(1)),
        ]
    conv = narayana_conv
    for k in range(1, 4):
        for n in range(11):
            rows += [
                ("identity/conv-recurrence", {"parity": "even", "k": k, "n": n},
                 conv(2 * k, n), conv(2 * k - 1, n) + T * conv(2 * k + 1, n - 1)),
                ("identity/conv-recurrence", {"parity": "odd", "k": k, "n": n},
                 conv(2 * k + 1, n), conv(2 * k, n) + conv(2 * k + 2, n - 1)),
            ]
    rows += [
        ("identity/conv-square-shift", {"n": n}, narayana_conv(2, n), narayana_conv(1, n + 1))
        for n in range(9)
    ]
    rows += [
        ("identity/companion-reciprocal", {"k": k},
         mixed[k].reciprocal() + (mixed[k] * UniPoly.monomial((k + 1) // 2)).shift(k),
         poly(POLY_RING, companion_poly_t(k).coeffs))
        for k in ks
    ]
    rows.append(
        ("identity/companion-base", {},
         c0.reciprocal() + (c0 * T).shift(1), poly(POLY_RING, [1, T - 1]))
    )
    rows += [
        ("identity/companion-collapse", {"k": k},
         UniPoly([p(1) for p in companion_poly_t(k).coeffs]), companion_poly(k))
        for k in ks
    ]
    rows += [
        ("identity/companion-int-table", {"k": k}, companion_poly(k), expected)
        for k, expected in COMPANION_INT_TABLE.items()
    ]
    rows += [
        ("identity/companion-t-table", {"k": k}, list(companion_poly_t(k).coeffs), list(expected))
        for k, expected in COMPANION_T_TABLE.items()
    ]
    return [CheckReport(*row) for row in rows]


# ---------------------------------------------------------------------------
# Weighted path identity.

def path_weight_reports(length_max: int, height_max: int) -> list[CheckReport]:
    """Prop 1 for every (k, n) within the length budget: the weight sum of
    paths to (2n + k - 1, k - 1) against the x^n coefficient of the k-th
    mixed convolution power.  Then enumeration-vs-closed-form agreement on
    the weight table.  Each (length, height) is walked once, and the run of
    mixed powers is built once, at the largest order that any k reads."""
    walk = functools.cache(path_weight_sum)
    mixed = mixed_powers(length_max + 1, length_max // 2 + 1)
    reports = []
    for k in range(1, length_max + 2):
        top = (length_max + 1 - k) // 2  # the largest n with 2n + k - 1 <= length_max
        for n in range(top + 1):
            length = 2 * n + k - 1
            reports.append(CheckReport(
                "paths/weight-identity", {"k": k, "n": n, "length": length},
                walk(length, k - 1), mixed[k].coefficient(n),
            ))
    return reports + [
        CheckReport(
            "paths/table-agreement", {"length": length, "height": height},
            walk(length, height), path_weight_sum_table(length, height),
        )
        for length in range(length_max + 1)
        for height in range(min(length, height_max) + 1)
    ]


# ---------------------------------------------------------------------------
# Suites.  SUITES is the one place the acceptance bounds are written: each
# entry is a callable of ``seed`` that calls the builders above with its
# bounds.  Only lemma and identities draw random instances; the other
# suites take ``seed`` and ignore it.

def theorem_reports(name: str, ks: range, ms: range, n_max: int) -> list[CheckReport]:
    """One shift theorem over the grid ks x ms, k-major."""
    return [r for k in ks for m in ms for r in check_shift_theorem(name, k, m, n_max)]


SUITES: dict[str, Callable[[int], list[CheckReport]]] = {
    "lemma": lambda seed: (
        random_duality_reports(count=50, seed=seed)
        + structured_duality_reports(power_max=4, shift_max=3, size_max=5)
    ),
    "thm1": lambda seed: theorem_reports("even-conv", range(1, 5), range(4), n_max=6),
    "thm2": lambda seed: theorem_reports("odd-conv", range(1, 5), range(4), n_max=6),
    "thm3": lambda seed: theorem_reports("even-conv-t", range(1, 4), range(3), n_max=4),
    "thm4": lambda seed: theorem_reports("odd-conv-t", range(1, 4), range(1, 3), n_max=4),
    "corollaries": lambda seed: check_corollaries(
        unit_det_rows(size_max=12)
        + [row for k in range(1, 4) for row in even_support_rows(k, size_max=24)]
        + [row for k in range(1, 3) for row in odd_support_rows(k, size_max=24)]
        + [row for k in range(1, 4) for row in even_support_t_rows(k, mult_max=3)]
        + narayana_unit_rows(size_max=8) + quartic_rows(size_max=8) + cubic_rows(size_max=6)
    ),
    "identities": lambda seed: check_series_identities(order=12, k_max=6, seed=seed),
    "prop1": lambda seed: path_weight_reports(length_max=15, height_max=6),
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Run one named suite and return its reports.  A full run is a loop
    over ``SUITE_ORDER``, one suite at a time."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_ORDER)}") from None
    return fn(seed)
