"""Truncated formal power series in x over Z or Z[t].

A :class:`Series` stores exactly ``order`` known coefficients; everything at
index >= order is unknown, not zero.  Every operation only claims the
coefficients it can prove: binary operations truncate to the smaller operand
order, ``shift`` gains order (the low coefficients of x^k * f are all
determined), and reading past the truncation raises
:class:`TruncationError` instead of fabricating a zero.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .polyring import Scalar, _Ring


class TruncationError(IndexError):
    """A coefficient beyond the known truncation order was requested."""


class Series:
    """Truncation-aware power series with exact coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: _Ring, coeffs: Iterable):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(
            self, "coeffs", tuple(ring.coerce(c) for c in coeffs)
        )

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def from_polynomial(cls, ring: _Ring, coeffs: Sequence, order: int) -> "Series":
        """Series of a polynomial: known zero out to the requested order."""
        if order < 0:
            raise ValueError("order must be non-negative")
        cs = list(coeffs[:order])
        cs.extend([ring.zero] * (order - len(cs)))
        return cls(ring, cs)

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
        if isinstance(other, Series):
            self._match(other)
            n = min(len(self.coeffs), len(other.coeffs))
            return Series(
                self.ring,
                tuple(self.coeffs[i] + other.coeffs[i] for i in range(n)),
            )
        s = self.ring.coerce(other)
        if not self.coeffs:
            return self
        out = list(self.coeffs)
        out[0] = out[0] + s
        return Series(self.ring, out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Series):
            self._match(other)
            n = min(len(self.coeffs), len(other.coeffs))
            a, b = self.coeffs, other.coeffs
            out = []
            for m in range(n):
                acc = self.ring.zero
                for i in range(m + 1):
                    acc = acc + a[i] * b[m - i]
                out.append(acc)
            return Series(self.ring, out)
        s = self.ring.coerce(other)
        return Series(self.ring, tuple(c * s for c in self.coeffs))

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
            acc = self.ring.zero
            for j in range(1, n + 1):
                acc = acc + self.coeffs[j] * inv[n - j]
            inv.append(-acc)
        return Series(self.ring, inv)

    def shift(self, k: int) -> "Series":
        """Multiply by x^k.  All order+k low coefficients are determined."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return Series(self.ring, (self.ring.zero,) * k + self.coeffs)

    def __repr__(self) -> str:
        return f"Series({self.ring.name}, order={self.order}, {list(self.coeffs)!r})"
