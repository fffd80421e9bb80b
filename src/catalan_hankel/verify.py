"""Mechanical verification of the determinant and series identities.

Every checker recomputes both sides of one identity instance through the
exact engines (fraction-free determinants, truncated series, closed forms)
and returns one :class:`CheckReport` per parameter tuple.  A suite is a flat
list of reports in deterministic order; it passes iff every report passes.
Randomized instances draw from a seeded generator so failures replay from
the recorded parameters alone.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .polyring import T, UniPoly, binomial
from .series import INTEGER_RING, POLY_RING, Series
from .families import (
    CATALAN_CONV,
    NARAYANA_CONV,
    Family,
    catalan_conv,
    catalan_series,
    companion_poly,
    companion_poly_t,
    lucas,
    mixed_power_series,
    narayana,
    narayana_conv,
    narayana_series,
    narayana_series_weighted,
)
from .hankel import catalan_dets, det_fraction_free, hankel_matrix, narayana_dets
from .paths import DEFAULT_CAP, check_path_weight_identity, path_weight_sum, path_weight_sum_table
from .report import CheckReport, equal_report

DEFAULT_SEED = 7


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _series_eq(check: str, params: dict, lhs: Series, rhs: Series) -> CheckReport:
    n = min(lhs.order, rhs.order)
    return equal_report(check, params, lhs.truncated(n), rhs.truncated(n))


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
    """
    if not s_coeffs:
        raise ValueError("need at least the constant coefficient")
    if shift < 0:
        raise ValueError(f"shift M={shift} must be >= 0")
    if size < 1:
        raise ValueError(f"size N={size} must be >= 1")
    ring = (
        POLY_RING
        if any(isinstance(c, UniPoly) for c in s_coeffs)
        else INTEGER_RING
    )
    coeffs = [ring.coerce(c) for c in s_coeffs]
    if coeffs[0] != ring.one:
        raise ValueError("constant coefficient must be 1")

    order = 2 * size + shift + 1
    s = Series.from_polynomial(ring, coeffs, max(order, len(coeffs)))
    recip = s.reciprocal()

    def s_at(i: int):
        return coeffs[i] if 0 <= i < len(coeffs) else ring.zero

    lhs = det_fraction_free(hankel_matrix(s_at, -shift, size + shift + 1))
    rhs_det = det_fraction_free(hankel_matrix(recip.coefficient, shift + 2, size))
    rhs = _sign(size + binomial(shift + 1, 2)) * rhs_det
    params = {"shift": shift, "size": size, "s": list(coeffs)}
    if extra:
        params = {**extra, **params}
    return equal_report("duality", params, lhs, rhs)


def random_duality_reports(
    count: int = 50,
    seed: int = DEFAULT_SEED,
    shift_max: int = 3,
    size_max: int = 5,
    coeff_bound: int = 9,
) -> list[CheckReport]:
    """Seeded random integer series, constant coefficient pinned to 1."""
    rng = random.Random(seed)
    reports = []
    for i in range(count):
        shift = rng.randint(0, shift_max)
        size = rng.randint(1, size_max)
        coeffs = [1] + [
            rng.randint(-coeff_bound, coeff_bound)
            for _ in range(2 * size + shift)
        ]
        reports.append(
            check_reciprocal_duality(coeffs, shift, size, extra={"index": i})
        )
    return reports


def structured_duality_reports(
    power_max: int = 4, shift_max: int = 3, size_max: int = 5
) -> list[CheckReport]:
    """Duality across powers of the Catalan series."""
    reports = []
    for k in range(1, power_max + 1):
        for shift in range(shift_max + 1):
            for size in range(1, size_max + 1):
                coeffs = [catalan_conv(k, n) for n in range(2 * size + shift + 1)]
                reports.append(
                    check_reciprocal_duality(
                        coeffs, shift, size, extra={"series": f"catalan^{k}"}
                    )
                )
    return reports


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
    kind, odd = SHIFT_THEOREMS[name]
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    K = 2 * k - odd
    family = Family(kind, K)
    polynomial = family.polynomial
    if polynomial and odd and m < 1:
        raise ValueError("the odd polynomial shift identity needs m >= 1")
    dets = narayana_dets if polynomial else catalan_dets
    back = 1 - k - m + odd
    top = m + k - 1 - odd
    offset = top + 1
    sign = _sign(binomial(top + 1, 2))
    zero = UniPoly() if polynomial else 0
    reports = []
    back_dets = dets(K, back, max(top, n_max + offset))
    first_row = [family.value(back + j) for j in range(top)]
    for N in range(1, top + 1):
        params = {"k": k, "m": m, "N": N}
        # All-zero first row is strictly stronger than a vanishing
        # determinant, so both are asserted separately.
        reports.append(
            equal_report(name + "/zero-row", params, first_row[:N], [zero] * N)
        )
        reports.append(
            equal_report(name + "/vanishing", params, back_dets[N], zero)
        )
    fwd_dets = dets(K, 1 - k + m, max(n_max, 0))
    for n in range(n_max + 1):
        lhs = back_dets[n + offset]
        rhs = fwd_dets[n]
        if polynomial:
            rhs = UniPoly.monomial(k * n, sign) * rhs
        else:
            rhs = sign * rhs
        params = {"k": k, "m": m, "n": n}
        reports.append(equal_report(name + "/shift", params, lhs, rhs))
    return reports


# ---------------------------------------------------------------------------
# Support patterns: outside sparse families of sizes these determinants
# vanish; on the support they are signed monomials.

def check_unit_determinants(size_max: int = 12) -> list[CheckReport]:
    """The three classical unit determinants: Catalan at shifts 0 and 1,
    and the second convolution power at shift 0, all identically 1."""
    reports = []
    for K, shift in ((1, 0), (1, 1), (2, 0)):
        for n, d in enumerate(catalan_dets(K, shift, size_max)):
            reports.append(
                equal_report(
                    "unit-det", {"K": K, "shift": shift, "n": n}, d, 1
                )
            )
    return reports


def check_even_support(k: int, size_max: int = 24) -> list[CheckReport]:
    """Power 2k at back shift 1-k: (-1)^(n*binom(k,2)) at sizes kn, else 0."""
    if k < 1:
        raise ValueError("need k >= 1")
    reports = []
    for N, d in enumerate(catalan_dets(2 * k, 1 - k, size_max)):
        q, r = divmod(N, k)
        expected = _sign(q * binomial(k, 2)) if r == 0 else 0
        reports.append(
            equal_report("even-conv/support", {"k": k, "N": N}, d, expected)
        )
    return reports


def check_odd_support(k: int, size_max: int = 24) -> list[CheckReport]:
    """Power 2k+1 at shifts -k and 1-k: periodic support mod 2k+1.

    Shift -k is nonzero at remainders 0 and k+1; shift 1-k at remainders
    0 and k; signs walk with (-1)^(k) per period plus a binomial offset at
    the second residue.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    K = 2 * k + 1
    reports = []
    sweeps = [
        (shift, second, catalan_dets(K, shift, size_max))
        for shift, second in ((-k, k + 1), (1 - k, k))
    ]
    for N in range(size_max + 1):
        q, r = divmod(N, K)
        for shift, second, dets in sweeps:
            if r == 0:
                expected = _sign(k * q)
            elif r == second:
                expected = _sign(k * q + binomial(second, 2))
            else:
                expected = 0
            reports.append(
                equal_report(
                    "odd-conv/support",
                    {"k": k, "shift": shift, "N": N},
                    dets[N],
                    expected,
                )
            )
    return reports


def check_even_support_poly(k: int, mult_max: int = 3) -> list[CheckReport]:
    """Power 2k over Z[t] at back shift 1-k: the size-kn determinant is
    (-1)^(n*binom(k,2)) * t^(k^2*binom(n,2)); other sizes vanish."""
    if k < 1:
        raise ValueError("need k >= 1")
    reports = []
    dets = narayana_dets(2 * k, 1 - k, k * mult_max)
    for n in range(mult_max + 1):
        d = dets[k * n]
        expected = UniPoly.monomial(
            k * k * binomial(n, 2), _sign(n * binomial(k, 2))
        )
        reports.append(
            equal_report(
                "even-conv-t/support", {"k": k, "n": n, "N": k * n}, d, expected
            )
        )
    for N in range(1, k * mult_max + 1):
        if N % k:
            reports.append(
                equal_report(
                    "even-conv-t/support", {"k": k, "N": N}, dets[N], UniPoly()
                )
            )
    return reports


def check_narayana_unit(size_max: int = 8) -> list[CheckReport]:
    """Narayana Hankel determinants at shifts 0 and 1 equal t^binom(n,2)."""
    reports = []
    for shift in (0, 1):
        for n, d in enumerate(narayana_dets(1, shift, size_max)):
            expected = UniPoly.monomial(binomial(n, 2))
            reports.append(
                equal_report(
                    "narayana-hankel/power", {"shift": shift, "n": n}, d, expected
                )
            )
    return reports


def check_quartic_closed_form(size_max: int = 8) -> list[CheckReport]:
    """Fourth power over Z[t] at shift 0: alternating sign, a t-power, and
    an even geometric factor 1 + t^2 + ... + t^(2n)."""
    reports = []
    for N, d in enumerate(narayana_dets(4, 0, size_max)):
        n, r = divmod(N, 2)
        geometric = UniPoly([1, 0] * n + [1])
        exp = 2 * (n * n - n) if r == 0 else 2 * n * n
        expected = _sign(n) * UniPoly.monomial(exp) * geometric
        reports.append(equal_report("closed-form/quartic", {"N": N}, d, expected))
    return reports


def check_cubic_closed_form(size_max: int = 6) -> list[CheckReport]:
    """Third power over Z[t] at shift 0: t^binom(N,2) times an alternating
    binomial tail in 1/t."""
    reports = []
    for N, d in enumerate(narayana_dets(3, 0, size_max)):
        top = binomial(N, 2)
        coeffs = [0] * (top + 1)
        for j in range(N // 2 + 1):
            coeffs[top - j] += _sign(j) * binomial(N - j, j)
        expected = UniPoly(coeffs)
        reports.append(equal_report("closed-form/cubic", {"N": N}, d, expected))
    return reports


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


def check_series_identities(
    order: int = 12, k_max: int = 6, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """The generating-function identity suite at one truncation order.

    Covers: the Catalan quadratic fixed point and reciprocal complement;
    Lucas power sums, doubling, and the reciprocal-power identity; the
    affine and quadratic relations tying the two Narayana series together;
    the interleaving and coefficient recurrences of mixed powers; the
    square-power index shift; the companion reciprocal identity with its
    base case, t = 1 collapse, and both printed tables.
    """
    if order < 4:
        raise ValueError("order too small to say anything")
    reports: list[CheckReport] = []
    c = catalan_series(order)
    c0 = narayana_series(order)
    c1 = narayana_series_weighted(order)
    one = Series.one(INTEGER_RING, order)

    reports.append(
        _series_eq("identity/catalan-quadratic", {}, (c * c).shift(1) + 1, c)
    )
    reports.append(
        _series_eq(
            "identity/catalan-reciprocal", {}, c.shift(1) + c.reciprocal(), one
        )
    )

    rng = random.Random(seed)
    for i in range(8):
        x = rng.randint(-9, 9)
        y = rng.randint(-9, 9)
        for n in range(11):
            reports.append(
                equal_report(
                    "identity/lucas-power-sum",
                    {"x": x, "y": y, "n": n},
                    lucas(n, x + y, -x * y),
                    x ** n + y ** n,
                )
            )

    for k in range(1, k_max + 1):
        reports.append(
            equal_report(
                "identity/lucas-doubling",
                {"k": k},
                companion_poly(2 * k),
                lucas(k, UniPoly((1, -2)), UniPoly((0, 0, -1))),
            )
        )

    for k in range(1, k_max + 1):
        lhs = (c.shift(1)) ** k + c.reciprocal() ** k
        rhs = Series.from_polynomial(
            INTEGER_RING, companion_poly(k).coeffs, order
        )
        reports.append(_series_eq("identity/lucas-reciprocal", {"k": k}, lhs, rhs))

    reports.append(
        _series_eq(
            "identity/narayana-affine",
            {},
            c1,
            (c0 * T) + Series.from_polynomial(POLY_RING, [UniPoly((1, -1))], order),
        )
    )
    reports.append(
        _series_eq(
            "identity/narayana-quadratic",
            {"which": "weighted"},
            (c0 * c1 * T).shift(1) + 1,
            c1,
        )
    )
    reports.append(
        _series_eq(
            "identity/narayana-quadratic",
            {"which": "plain"},
            (c0 * c1).shift(1) + 1,
            c0,
        )
    )

    for k in range(1, k_max + 1):
        reports.append(
            _series_eq(
                "identity/interleave-odd",
                {"k": k},
                mixed_power_series(2 * k - 1, order),
                mixed_power_series(2 * k - 2, order)
                + mixed_power_series(2 * k, order).shift(1),
            )
        )
        reports.append(
            _series_eq(
                "identity/interleave-even",
                {"k": k},
                mixed_power_series(2 * k, order),
                mixed_power_series(2 * k - 1, order)
                + (mixed_power_series(2 * k + 1, order) * T).shift(1),
            )
        )

    # narayana_conv is computed by this very recurrence, so both sides read
    # the generating-function coefficients instead.
    conv = {K: mixed_power_series(K, 11).coefficient for K in range(1, 9)}
    for k in range(1, 4):
        for n in range(11):
            reports.append(
                equal_report(
                    "identity/conv-recurrence",
                    {"parity": "even", "k": k, "n": n},
                    conv[2 * k](n),
                    conv[2 * k - 1](n) + T * conv[2 * k + 1](n - 1),
                )
            )
            reports.append(
                equal_report(
                    "identity/conv-recurrence",
                    {"parity": "odd", "k": k, "n": n},
                    conv[2 * k + 1](n),
                    conv[2 * k](n) + conv[2 * k + 2](n - 1),
                )
            )

    for n in range(9):
        reports.append(
            equal_report(
                "identity/conv-square-shift",
                {"n": n},
                narayana_conv(2, n),
                narayana(n + 1),
            )
        )

    for k in range(1, k_max + 1):
        ck = mixed_power_series(k, order)
        tail = (ck * UniPoly.monomial((k + 1) // 2)).shift(k)
        reports.append(
            _series_eq(
                "identity/companion-reciprocal",
                {"k": k},
                ck.reciprocal() + tail,
                Series.from_polynomial(POLY_RING, companion_poly_t(k).coeffs, order),
            )
        )

    reports.append(
        _series_eq(
            "identity/companion-base",
            {},
            c0.reciprocal() + (c0 * T).shift(1),
            Series.from_polynomial(
                POLY_RING, [UniPoly((1,)), UniPoly((-1, 1))], order
            ),
        )
    )

    for k in range(1, k_max + 1):
        collapsed = UniPoly([p(1) for p in companion_poly_t(k).coeffs])
        reports.append(
            equal_report(
                "identity/companion-collapse",
                {"k": k},
                collapsed,
                companion_poly(k),
            )
        )

    for k, expected in COMPANION_INT_TABLE.items():
        reports.append(
            equal_report(
                "identity/companion-int-table", {"k": k}, companion_poly(k), expected
            )
        )
    for k, expected in COMPANION_T_TABLE.items():
        reports.append(
            equal_report(
                "identity/companion-t-table",
                {"k": k},
                list(companion_poly_t(k).coeffs),
                list(expected),
            )
        )

    return reports


# ---------------------------------------------------------------------------
# Weighted path identity.

def path_weight_reports(
    length_max: int = 15, height_max: int = 6, cap: int = DEFAULT_CAP
) -> list[CheckReport]:
    """Path-weight identity for every (k, n) within the length budget, plus
    enumeration-vs-recurrence agreement on the weight table."""
    reports = []
    for k in range(1, length_max + 2):
        n = 0
        while 2 * n + k - 1 <= length_max:
            reports.append(check_path_weight_identity(k, n, cap))
            n += 1
    for length in range(length_max + 1):
        for height in range(min(length, height_max) + 1):
            reports.append(
                equal_report(
                    "paths/table-agreement",
                    {"length": length, "height": height},
                    path_weight_sum(length, height, cap),
                    path_weight_sum_table(length, height),
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Suites.  The default bounds here are the acceptance bounds.

def suite_lemma(seed: int = DEFAULT_SEED) -> list[CheckReport]:
    return random_duality_reports(seed=seed) + structured_duality_reports()


def _theorem_suite(name: str, ks: range, ms: range, n_max: int) -> Callable:
    """The suite of one shift theorem over the grid ks x ms.  The theorems
    have no random instances, so the suite takes ``seed`` and ignores it."""

    def suite(seed: int = DEFAULT_SEED) -> list[CheckReport]:
        reports = []
        for k in ks:
            for m in ms:
                reports.extend(check_shift_theorem(name, k, m, n_max))
        return reports

    return suite


def suite_corollaries(seed: int = DEFAULT_SEED) -> list[CheckReport]:
    reports = check_unit_determinants(size_max=12)
    for k in range(1, 4):
        reports.extend(check_even_support(k, size_max=24))
    for k in range(1, 3):
        reports.extend(check_odd_support(k, size_max=24))
    for k in range(1, 4):
        reports.extend(check_even_support_poly(k, mult_max=3))
    reports.extend(check_narayana_unit(size_max=8))
    reports.extend(check_quartic_closed_form(size_max=8))
    reports.extend(check_cubic_closed_form(size_max=6))
    return reports


def suite_identities(seed: int = DEFAULT_SEED) -> list[CheckReport]:
    return check_series_identities(order=12, k_max=6, seed=seed)


def suite_prop1(seed: int = DEFAULT_SEED) -> list[CheckReport]:
    return path_weight_reports(length_max=15, height_max=6)


SUITES: dict[str, Callable[..., list[CheckReport]]] = {
    "lemma": suite_lemma,
    "thm1": _theorem_suite("even-conv", range(1, 5), range(4), n_max=6),
    "thm2": _theorem_suite("odd-conv", range(1, 5), range(4), n_max=6),
    "thm3": _theorem_suite("even-conv-t", range(1, 4), range(3), n_max=4),
    "thm4": _theorem_suite("odd-conv-t", range(1, 4), range(1, 3), n_max=4),
    "corollaries": suite_corollaries,
    "identities": suite_identities,
    "prop1": suite_prop1,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Run one named suite, or all of them in declaration order."""
    if name == "all":
        reports = []
        for key in SUITE_ORDER:
            reports.extend(SUITES[key](seed=seed))
        return reports
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_ORDER)} or all") from None
    return fn(seed=seed)
