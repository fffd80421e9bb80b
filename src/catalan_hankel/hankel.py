"""Hankel matrices and exact fraction-free determinants.

The determinant engine is one-step fraction-free elimination: every update
``(piv*a[r][c] - a[r][col]*a[col][c]) / prev_piv`` divides exactly in the
coefficient ring, keeping intermediate entries as genuine minors instead of
fractions.  No content is stripped mid-elimination, so the algorithm is
identical over Z and Z[t].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .polyring import Scalar, UniPoly, exact_div
from .families import catalan_conv, narayana_conv


@dataclass(frozen=True)
class SquareMatrix:
    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix rows must form a square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def map_entries(self, f: Callable[[Scalar], Scalar]) -> "SquareMatrix":
        return SquareMatrix(tuple(tuple(f(e) for e in row) for row in self.rows))

    def to_json(self) -> dict:
        rows = [
            [list(e.coeffs) if isinstance(e, UniPoly) else e for e in row]
            for row in self.rows
        ]
        return {"n": self.n, "rows": rows}


def hankel_matrix(seq: Callable[[int], Scalar], shift: int, size: int) -> SquareMatrix:
    """N x N matrix with entry(i, j) = seq(i + j + shift).

    The shift may be negative; the sequence callback is expected to return
    its ring's zero for negative indices.  The callback is called once per
    distinct index, 2N - 1 times in ascending order, and row i is the
    window of N values starting at its i-th value.
    """
    if size < 0:
        raise ValueError(f"matrix size {size} must be >= 0")
    values = [seq(m) for m in range(shift, shift + 2 * size - 1)]
    return SquareMatrix(tuple(tuple(values[i : i + size]) for i in range(size)))


def det_fraction_free(m: SquareMatrix) -> Scalar:
    """Exact determinant by one-step fraction-free elimination.

    The empty matrix has determinant 1.  A zero pivot is repaired by a row
    swap (sign flip); if no nonzero pivot exists below, the determinant is
    the ring's zero.
    """
    n = m.n
    if n == 0:
        return 1
    a = [list(row) for row in m.rows]
    sign = 1
    prev: Scalar = 1
    for col in range(n - 1):
        if not a[col][col]:
            for r in range(col + 1, n):
                if a[r][col]:
                    a[col], a[r] = a[r], a[col]
                    sign = -sign
                    break
            else:
                return a[col][col]  # the ring's zero
        piv = a[col][col]
        for r in range(col + 1, n):
            lead = a[r][col]
            row_r = a[r]
            row_c = a[col]
            for c in range(col + 1, n):
                val = piv * row_r[c] - lead * row_c[c]
                row_r[c] = val if col == 0 else exact_div(val, prev)
        prev = piv
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def catalan_det(k: int, shift: int, size: int) -> int:
    """Hankel determinant of the k-th Catalan convolution power.

    Entry (i, j) is catalan_conv(k, i + j + shift); negative indices give 0.
    """
    matrix = hankel_matrix(lambda n: catalan_conv(k, n), shift, size)
    return det_fraction_free(matrix)


def narayana_det(k: int, shift: int, size: int) -> UniPoly:
    """Hankel determinant of the k-th mixed Narayana convolution power."""
    matrix = hankel_matrix(lambda n: narayana_conv(k, n), shift, size)
    d = det_fraction_free(matrix)
    if isinstance(d, int):
        return UniPoly((d,))
    return d
