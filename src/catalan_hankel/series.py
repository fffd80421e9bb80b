"""Truncated formal power series in x over Z or Z[t].

A :class:`Series` stores exactly ``order`` known coefficients; everything at
index >= order is unknown, not zero.  ``Series(ring, coeffs, order)`` is the
one constructor: it coerces the given coefficients into the ring, then cuts
them to ``order`` or pads them with known zeros.  Every operation passes the
order it proves: binary operations the smaller operand order, ``reciprocal``
its own, and ``shift(k)`` order + k (the low coefficients of x^k * f are all
determined).  Reading past the truncation raises :class:`TruncationError`
instead of fabricating a zero.
"""

from __future__ import annotations

from collections.abc import Iterable

from .polyring import Scalar, _Ring


class TruncationError(IndexError):
    """A coefficient beyond the known truncation order was requested."""


def _dot(a, b, lo: int, m: int, zero):
    """a[lo]·b[m−lo] + … + a[m]·b[0]: coefficient m of a product, from term lo of a."""
    acc = zero
    for i in range(lo, m + 1):
        acc = acc + a[i] * b[m - i]
    return acc


class Series:
    """Truncation-aware power series with exact coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: _Ring, coeffs: Iterable, order: int):
        """The series known to ``order``: every given coefficient coerced into
        ``ring`` (a foreign one raises TypeError even where it is cut), cut
        to ``order`` or padded with the ring's zero."""
        if order < 0:
            raise ValueError("order must be non-negative")
        cs = [ring.coerce(c) for c in coeffs][:order]
        cs.extend([ring.zero] * (order - len(cs)))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int) -> Scalar:
        """Coefficient of x^n; zero for n < 0, error past the truncation."""
        if n < 0:
            return self.ring.zero
        if n >= len(self.coeffs):
            raise TruncationError(
                f"coefficient {n} requested, series known to order {self.order}"
            )
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def _match(self, other: "Series"):
        if self.ring is not other.ring:
            raise TypeError(
                f"mixed coefficient rings: {self.ring.name} vs {other.ring.name}"
            )

    def __add__(self, other):
        if not isinstance(other, Series):  # a scalar is its constant series
            other = Series(self.ring, [other], self.order)
        self._match(other)
        order = min(self.order, other.order)
        return Series(self.ring, (a + b for a, b in zip(self.coeffs, other.coeffs)), order)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Series):
            self._match(other)
            a, b, zero = self.coeffs, other.coeffs, self.ring.zero
            order = min(self.order, other.order)
            return Series(self.ring, (_dot(a, b, 0, m, zero) for m in range(order)), order)
        s = self.ring.coerce(other)
        return Series(self.ring, (c * s for c in self.coeffs), self.order)

    __rmul__ = __mul__

    def reciprocal(self) -> "Series":
        """Multiplicative inverse; requires constant coefficient 1."""
        if not self.coeffs:
            raise TruncationError("reciprocal needs at least the constant term")
        if self.coeffs[0] != self.ring.one:
            raise ValueError("reciprocal requires constant coefficient 1")
        inv = [self.ring.one]
        for n in range(1, len(self.coeffs)):
            # t_n = -(a_1 t_{n-1} + ... + a_n t_0), from (sum a x^i)(sum t x^j) = 1
            inv.append(-_dot(self.coeffs, inv, 1, n, self.ring.zero))
        return Series(self.ring, inv, self.order)

    def shift(self, k: int) -> "Series":
        """Multiply by x^k.  All order+k low coefficients are determined."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return Series(self.ring, (self.ring.zero,) * k + self.coeffs, self.order + k)

    def __repr__(self) -> str:
        return f"Series({self.ring.name}, order={self.order}, {list(self.coeffs)!r})"
