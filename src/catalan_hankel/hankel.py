"""Hankel matrices and exact fraction-free determinants.

The determinant engine is one-step fraction-free elimination: every update
``(piv*a[r][c] - a[r][col]*a[col][c]) / prev_piv`` divides exactly in the
coefficient ring, keeping intermediate entries as genuine minors instead of
fractions.  No content is stripped mid-elimination, so the algorithm is
identical over Z and Z[t].  The pivots it meets are the leading principal
minors, so one elimination of the largest matrix gives the determinants of
every size of a Hankel sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .polyring import Scalar, UniPoly, _Ring, exact_div
from .families import CATALAN_CONV, NARAYANA_CONV, Family


@dataclass(frozen=True)
class SquareMatrix:
    """A square matrix over a coefficient ring."""

    ring: _Ring
    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix rows must form a square")

    @property
    def n(self) -> int:
        return len(self.rows)


def hankel_matrix(
    ring: _Ring, seq: Callable[[int], Scalar], shift: int, size: int
) -> SquareMatrix:
    """N x N matrix over ``ring`` with entry(i, j) = seq(i + j + shift).

    The shift may be negative; the sequence callback is expected to return
    its ring's zero for negative indices.  The callback is called once per
    distinct index, 2N - 1 times in ascending order, and row i is the
    window of N values starting at its i-th value.
    """
    if size < 0:
        raise ValueError(f"matrix size {size} must be >= 0")
    values = [seq(m) for m in range(shift, shift + 2 * size - 1)]
    return SquareMatrix(ring, tuple(tuple(values[i : i + size]) for i in range(size)))


def leading_minors(m: SquareMatrix) -> list[Scalar]:
    """Every leading principal minor [D(0), ..., D(n)] from one elimination.

    One-step fraction-free elimination keeps a[i-1][i-1], just before column
    i-1 is pivoted, equal to the i x i leading minor of the row-permuted
    matrix, so D(i) is read off there with the sign of the swaps so far.
    D(0) is the ring's one.  A zero pivot at column c is repaired by
    swapping in the first row r below with a nonzero entry (sign flip);
    every D(i) with c < i <= r is then the ring's zero, because the first
    c + 1 columns of the i x i block have rank c.  If no row below has a
    nonzero entry, all remaining minors are that zero.  Each D(i) equals,
    in value and type, the determinant of the leading i x i block
    eliminated on its own.
    """
    n = m.n
    a = [list(row) for row in m.rows]
    minors: list[Scalar] = [m.ring.one]
    sign = 1
    prev = m.ring.one
    for col in range(n):
        d = a[col][col]
        if len(minors) == col + 1:
            minors.append(-d if sign < 0 else d)
        if not d:
            for r in range(col + 1, n):
                if a[r][col]:
                    a[col], a[r] = a[r], a[col]
                    sign = -sign
                    minors += [d] * (r + 1 - len(minors))  # d is the ring's zero
                    break
            else:
                minors += [d] * (n + 1 - len(minors))
                return minors
        piv = a[col][col]
        for r in range(col + 1, n):
            lead = a[r][col]
            row_r = a[r]
            row_c = a[col]
            for c in range(col + 1, n):
                val = piv * row_r[c] - lead * row_c[c]
                row_r[c] = val if col == 0 else exact_div(val, prev)
        prev = piv
    return minors


def det_fraction_free(m: SquareMatrix) -> Scalar:
    """Exact determinant: the last of :func:`leading_minors`.

    The empty matrix has determinant the ring's one; a singular matrix
    gives the ring's zero.
    """
    return leading_minors(m)[-1]


def family_dets(family: Family, shift: int, top: int) -> list[Scalar]:
    """Hankel determinants of sizes 0..top of one convolution family, each
    in the family's ring, all read from one elimination of the top x top
    matrix.  Raises ValueError for top < 0.

    Entry (i, j) is family.value(i + j + shift); negative indices give zero.
    """
    return leading_minors(hankel_matrix(family.ring, family.value, shift, top))


def catalan_dets(k: int, shift: int, top: int) -> list[int]:
    """Hankel determinants of sizes 0..top of the k-th Catalan convolution
    power, from one sweep.  Raises ValueError for k < 1 or top < 0."""
    return family_dets(Family(CATALAN_CONV, k), shift, top)


def narayana_dets(k: int, shift: int, top: int) -> list[UniPoly]:
    """Hankel determinants of sizes 0..top of the k-th mixed Narayana
    convolution power, from one sweep, each as a UniPoly."""
    return family_dets(Family(NARAYANA_CONV, k), shift, top)


def catalan_det(k: int, shift: int, size: int) -> int:
    """Hankel determinant of the k-th Catalan convolution power, size x size."""
    return catalan_dets(k, shift, size)[-1]


def narayana_det(k: int, shift: int, size: int) -> UniPoly:
    """Hankel determinant of the k-th mixed Narayana convolution power."""
    return narayana_dets(k, shift, size)[-1]
