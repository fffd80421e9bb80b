"""Independent reference implementations used to freeze expected values.

Deliberately naive and structurally different from the package code:
dict-based polynomial arithmetic, cofactor expansion instead of
elimination, elimination of any square matrix instead of a subresultant
chain on a Hankel sequence, a fresh elimination per matrix size instead of
one sweep, list convolution and the path additions of the Prop 1 ballot
recurrence instead of closed forms, Dyck-path peak counting for the
Narayana refinement, and per-path heights and weights read off a step tuple
instead of tallied during the walk.  The determinant oracles do their own
arithmetic: ``//`` over Z, dict polynomials over Z[t] and residues mod a
prime over GF(p), never the package's ring operations.
"""

import operator
from collections import namedtuple
from functools import lru_cache

from catalan_hankel import UniPoly


# -- dict polynomials: {exponent: coefficient}, zeros dropped ---------------

def dpoly(coeffs) -> dict[int, int]:
    return {e: c for e, c in enumerate(coeffs) if c}


def dadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


def dmul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def dpoly_to_tuple(d: dict) -> tuple[int, ...]:
    if not d:
        return ()
    out = [0] * (max(d) + 1)
    for e, c in d.items():
        out[e] = c
    return tuple(out)


# -- the determinant oracles' arithmetic: read in, compute, write back ------

def dneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def ddiv(a: dict, b: dict) -> dict:
    """Exact quotient a / b of dict polynomials, by long division from the
    top term; asserts that no remainder is left."""
    eb = max(b)
    quo: dict[int, int] = {}
    rem = a
    while rem:
        e = max(rem)
        q, r = divmod(rem[e], b[eb])
        assert e >= eb and not r, f"{a} is not divisible by {b}"
        quo[e - eb] = q
        rem = dadd(rem, {e - eb + x: -q * c for x, c in b.items()})
    return quo


def idiv(a: int, b: int) -> int:
    assert a % b == 0, f"{a} is not divisible by {b}"
    return a // b


#: A ring's operations for the oracles: ``read`` takes a library value to
#: the oracle's own form, ``write`` takes a result back for comparison.
Arith = namedtuple("Arith", "read write one add neg mul div")
ZZ = Arith(int, int, 1, operator.add, operator.neg, operator.mul, idiv)
ZZ_T = Arith(
    lambda p: dpoly(p.coeffs), lambda d: UniPoly(dpoly_to_tuple(d)), {0: 1},
    dadd, dneg, dmul, ddiv,
)
#: The Mersenne prime 2^61 - 1, and the integers mod it: every value is
#: kept reduced to 0..P-1, and division multiplies by the inverse.
P = 2**61 - 1
GF_P = Arith(
    lambda v: v % P, int, 1, lambda a, b: (a + b) % P, lambda a: -a % P,
    lambda a, b: a * b % P, lambda a, b: a * pow(b, -1, P) % P,
)


def _read(rows, ops):
    return [[ops.read(v) for v in row] for row in rows]


# -- determinants by cofactor expansion along the first row -----------------

def cofactor_det(rows, ops):
    """Determinant of a square matrix over the ring whose operations are
    ``ops``, by cofactor expansion."""

    def expand(rows):
        if not rows:
            return ops.one
        total = None
        for j in range(len(rows)):
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = ops.mul(rows[0][j], expand(minor))
            if j % 2:
                term = ops.neg(term)
            total = term if total is None else ops.add(total, term)
        return total

    return ops.write(expand(_read(rows, ops)))


# -- one fraction-free elimination per matrix size ---------------------------

def per_size_det(rows, ops):
    """Determinant of one square matrix by its own one-step fraction-free
    elimination over the ring whose operations are ``ops``; the result the
    library's single sweep must reproduce, in value and type, for every
    leading block."""
    n = len(rows)
    if n == 0:
        return ops.write(ops.one)
    a = _read(rows, ops)
    sign = 1
    prev = ops.one
    for col in range(n - 1):
        if not a[col][col]:
            for r in range(col + 1, n):
                if a[r][col]:
                    a[col], a[r] = a[r], a[col]
                    sign = -sign
                    break
            else:
                return ops.write(a[col][col])  # the ring's zero
        piv = a[col][col]
        for r in range(col + 1, n):
            lead = a[r][col]
            row_r = a[r]
            row_c = a[col]
            for c in range(col + 1, n):
                val = ops.add(ops.mul(piv, row_r[c]), ops.neg(ops.mul(lead, row_c[c])))
                row_r[c] = val if col == 0 else ops.div(val, prev)
        prev = piv
    d = a[n - 1][n - 1]
    return ops.write(ops.neg(d) if sign < 0 else d)


# -- every leading minor of any square matrix from one elimination -----------

def sweep_minors(rows, ops):
    """Every leading principal minor [D(0), ..., D(n)] of a square matrix of
    any shape over the ring whose operations are ``ops``, from one one-step
    fraction-free elimination.

    a[i-1][i-1], just before column i-1 is pivoted, is the i x i leading
    minor of the row-permuted matrix, so D(i) is read off there with the
    sign of the swaps so far.  A zero pivot at column c is repaired by
    swapping in the first row r below with a nonzero entry; every D(i) with
    c < i <= r is then zero, because the first c + 1 columns of the i x i
    block have rank c.  If no row below has a nonzero entry, all remaining
    minors are that zero.  The library's subresultant chain must reproduce
    these on every Hankel matrix, in value and type.
    """
    n = len(rows)
    a = _read(rows, ops)
    minors = [ops.one]
    sign = 1
    prev = ops.one
    for col in range(n):
        d = a[col][col]
        if len(minors) == col + 1:
            minors.append(ops.neg(d) if sign < 0 else d)
        if not d:
            for r in range(col + 1, n):
                if a[r][col]:
                    a[col], a[r] = a[r], a[col]
                    sign = -sign
                    minors += [d] * (r + 1 - len(minors))  # d is the ring's zero
                    break
            else:
                minors += [d] * (n + 1 - len(minors))
                break
        piv = a[col][col]
        for r in range(col + 1, n):
            lead = a[r][col]
            row_r = a[r]
            row_c = a[col]
            for c in range(col + 1, n):
                val = ops.add(ops.mul(piv, row_r[c]), ops.neg(ops.mul(lead, row_c[c])))
                row_r[c] = val if col == 0 else ops.div(val, prev)
        prev = piv
    return [ops.write(m) for m in minors]


# -- convolution powers by repeated list convolution -------------------------

def convolve(a: list, b: list) -> list:
    n = min(len(a), len(b))
    return [
        sum((a[i] * b[m - i] for i in range(m + 1)), start=0 * a[0])
        for m in range(n)
    ]


def list_power(base: list, k: int) -> list:
    out = base[:]
    for _ in range(k - 1):
        out = convolve(out, base)
    return out


def catalan_by_recurrence(count: int) -> list[int]:
    cs = [1]
    for n in range(1, count):
        cs.append(sum(cs[i] * cs[n - 1 - i] for i in range(n)))
    return cs


# -- Narayana polynomials by counting peaks of Dyck paths --------------------

@lru_cache(maxsize=None)
def _peaks_to_come(ups_left: int, height: int, last_up: bool) -> tuple:
    """(exponent, count) pairs: ways to finish a Dyck path from this state,
    by the number of peaks still to come."""
    if ups_left == 0 and height == 0:
        return ((0, 1),)
    out: dict[int, int] = {}
    if ups_left > 0:
        out = dadd(out, dict(_peaks_to_come(ups_left - 1, height + 1, True)))
    if height > 0:
        rest = dict(_peaks_to_come(ups_left, height - 1, False))
        if last_up:
            rest = {p + 1: c for p, c in rest.items()}
        out = dadd(out, rest)
    return tuple(sorted(out.items()))


def narayana_by_peaks(n: int) -> UniPoly:
    """Sum of t^(peaks-1) over Dyck paths of semilength n; 1 for n = 0.

    The walk over paths is memoized on (ups left, height, last step up), so
    semilengths in the tens stay cheap.
    """
    if n == 0:
        return UniPoly((1,))
    counts = dict(_peaks_to_come(n, 0, False))
    return UniPoly([counts.get(k + 1, 0) for k in range(max(counts))])


def mixed_powers_by_convolution(k_max: int, count: int) -> list[list]:
    """First ``count`` coefficients of the mixed powers c0*c1*c0*... with
    0..k_max factors, by list convolution; c0 comes from peak counting
    and c1 = 1 + t*(c0 - 1)."""
    c0 = [narayana_by_peaks(n) for n in range(count)]
    c1 = c0[:1] + [UniPoly((0,) + p.coeffs) for p in c0[1:]]
    powers = [[UniPoly((1,))] + [UniPoly()] * (count - 1)]
    for k in range(k_max):
        powers.append(convolve(powers[-1], c1 if k % 2 else c0))
    return powers


# -- mixed Narayana powers by the Prop 1 ballot recurrence -------------------

def ballot_prefix(k: int, size: int) -> list[UniPoly]:
    """The x^n coefficients of the k-th mixed power for 0 <= n < size, by
    the two-term ballot recurrence of the weighted path model (Prop 1):

        a(j, n) = a(j-1, n) + w * a(j+1, n-1),  w = t for even j, 1 for odd j,

    with a(0, n) = [n == 0] and a(j, 0) = 1.  Row n holds a(j, n) for
    0 <= j <= k + size - 1 - n, the band of powers that can still reach
    (k, size - 1).  Polynomials are coefficient tuples; all coefficients are
    non-negative, so sums never cancel, and the weight t is a prepended zero.
    """
    top = k + size - 1
    row = [(1,)] * (top + 1)
    out = [UniPoly((1,))]
    for n in range(1, size):
        prev, row = row, [()]
        for j in range(1, top - n + 1):
            a, b = row[j - 1], prev[j + 1]
            if b and not j % 2:
                b = (0,) + b
            if len(a) < len(b):
                a, b = b, a
            row.append(tuple(x + y for x, y in zip(a, b)) + a[len(b):])
        out.append(UniPoly(row[k]))
    return out[:size]


# -- one path at a time: heights and weight from its steps -------------------

def path_heights(path: tuple[int, ...]) -> tuple[int, ...]:
    """Running heights after each step; raises if the path dips below 0."""
    h = 0
    heights = []
    for step in path:
        if step not in (1, -1):
            raise ValueError(f"invalid step {step!r}; steps are +1 or -1")
        h += step
        if h < 0:
            raise ValueError("path dips below the axis")
        heights.append(h)
    return tuple(heights)


def path_weight(path: tuple[int, ...]) -> UniPoly:
    """t^(number of down steps landing at odd height)."""
    heights = path_heights(path)
    odd_downs = sum(1 for step, h in zip(path, heights) if step < 0 and h % 2)
    return UniPoly.monomial(odd_downs)
