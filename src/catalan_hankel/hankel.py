"""Hankel matrices and their exact leading minors.

An N x N Hankel matrix is fixed by its defining sequence a(0..2N-2), and
its leading principal minors are, up to sign, the principal subresultant
coefficients of x^(2N-1) and the reversed sequence polynomial.  The engine
is one fraction-free subresultant chain on that pair: every division in it
is exact in the coefficient ring, so the algorithm is identical over Z and
Z[t], and it yields the determinants of every size of a sweep in O(N^2)
ring operations.  Zero minors show up as degree gaps of the chain.

The chain's one entry, ``leading_minors(ring, seq)``, checks and coerces
the sequence; every caller reads its entries through ``hankel_matrix``.
``HankelMatrix``, ``hankel_matrix`` and ``det_fraction_free`` also stay
because ``perfbench/tracer.py`` times them by name; the package root
does not export them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence

from .polyring import Scalar, _Ring


class HankelMatrix(namedtuple("HankelMatrix", "ring seq")):
    """The N x N Hankel matrix over ``ring`` with entry (i, j) = seq[i + j],
    as an immutable (ring, seq) tuple; the empty matrix has the empty
    sequence.  The values are neither checked nor coerced here;
    :func:`leading_minors` does both."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return (len(self.seq) + 1) // 2


def hankel_matrix(
    ring: _Ring, seq: Callable[[int], Scalar], shift: int, size: int
) -> HankelMatrix:
    """N x N Hankel matrix over ``ring`` with entry(i, j) = seq(i + j + shift).

    The shift may be negative; the sequence callback is expected to return
    its ring's zero for negative indices.  The callback is called once per
    distinct index, 2N - 1 times in ascending order.
    """
    if size < 0:
        raise ValueError(f"matrix size {size} must be >= 0")
    return HankelMatrix(ring, tuple(seq(m) for m in range(shift, shift + 2 * size - 1)))


def _pseudo_remainder(a: list, b: list, d: int) -> list:
    """lc(b)^(d + 1) * a mod b, as far down as it is known; d = deg a - deg b.

    Both operands are coefficient lists in descending degree order, the
    first entry nonzero, cut at floors of their own.  Besides the quotient,
    which reads only top coefficients, the result's coefficient of degree e
    reads a at degree e and b at degrees e - d .. e, so the result lists
    the degrees deg b - 1 down to the higher of a's floor and b's floor
    plus d.
    """
    lead = b[0]
    r = a
    for _ in range(d + 1):
        c = r[0]
        r = [lead * x - c * y for x, y in zip(r[1:], b[1:])]
    return r


def leading_minors(ring: _Ring, seq: Sequence[Scalar]) -> list[Scalar]:
    """Every leading principal minor [D(0), ..., D(N)] of the N x N Hankel
    matrix over ``ring`` whose defining sequence a(0..2N-2) is ``seq``.

    An even, non-zero length raises ValueError.  Each value is coerced into
    the ring, so an int becomes a constant of Z[t], and a UniPoly over Z
    raises TypeError.  With M = 2N - 1, F = x^M and
    G = sum a(i) x^(M-1-i), D(n) = (-1)^(n(n-1)/2) sres_(M-n)(F, G) for
    1 <= n <= N, where sres_j is the j-th principal subresultant
    coefficient; D(0) is the ring's one.

    One fraction-free subresultant chain (Brown-Traub signs) gives them
    all.  Each remainder is prem(A, B) / ((-1)^(d+1) g h^d), where
    d = deg A - deg B, g = lc(A) and h is the principal coefficient at
    deg A; its formal index is j = deg B - 1.  If its degree falls below j,
    the minors of the skipped degrees are zero, and its own principal
    coefficient is lc^d / h^(d-1), taken by Lazard's iterated exact
    division.  Every division is the ring's ``div``.  A zero remainder
    makes every later minor zero.

    Only principal coefficients at degrees >= N - 1 are needed.  G is known
    at degrees >= 0, and each remainder d degrees above the floor of B, so
    a member of formal index j is known, and computed, only at degrees
    >= 2(N-1) - j; the sweep then costs O(N^2) ring operations.  Each D(n)
    equals, in value and type, the determinant of the leading n x n block.
    """
    if len(seq) % 2 == 0 and seq:
        raise ValueError(f"a Hankel sequence has odd length 2N - 1, not {len(seq)}")
    b = [ring.coerce(v) for v in seq]
    div = ring.div
    size = (len(b) + 1) // 2
    one = ring.one
    minors: list[Scalar] = [one] + [ring.zero] * size
    top = 2 * size - 1
    a = [one] + [ring.zero] * top
    g = h = one
    j = top - 1  # formal subresultant index of b
    while True:
        skip = next((i for i, c in enumerate(b) if c), None)
        if skip is None:
            break
        b, deg_b, d = b[skip:], j - skip, skip + 1  # d = deg a - deg b
        lead = s = b[0]
        for _ in range(d - 1):
            s = div(s * lead, h)
        n = top - deg_b
        if n <= size:
            minors[n] = -s if n % 4 in (2, 3) else s
        if deg_b < size:
            break
        # the remainder has formal index deg_b - 1
        r = _pseudo_remainder(a, b, d)
        beta = g
        for _ in range(d):
            beta = beta * h
        if d % 2 == 0:
            beta = -beta
        a, g, h, j = b, lead, s, deg_b - 1
        b = [div(c, beta) for c in r]
    return minors


def det_fraction_free(m: HankelMatrix) -> Scalar:
    """Exact determinant: the last of :func:`leading_minors`.

    The empty matrix has determinant the ring's one; a singular matrix
    gives the ring's zero.
    """
    return leading_minors(m.ring, m.seq)[-1]


def family_dets(family, shift: int, top: int) -> list[Scalar]:
    """Hankel determinants of sizes 0..top of one convolution family, each
    in the family's ring, all read from one chain on the top x top
    matrix.  ``family`` is any record with ``ring`` and ``value``, such as
    ``families.Family``.  Raises ValueError for top < 0; the size N
    determinant alone is ``family_dets(family, shift, N)[-1]``.

    Entry (i, j) is family.value(i + j + shift); negative indices give zero.
    """
    m = hankel_matrix(family.ring, family.value, shift, top)
    return leading_minors(m.ring, m.seq)

