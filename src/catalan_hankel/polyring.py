"""Exact scalar arithmetic for the two coefficient rings.

Integers are plain Python ``int`` (arbitrary precision).  Polynomials in the
weight variable t are dense integer-coefficient :class:`UniPoly` values,
and each of their operators reads an int operand as a constant.
``INTEGER_RING`` and ``POLY_RING`` describe the two rings (zero, one and
scalar coercion) for the series and matrices built over them.  Both rings
share :func:`exact_div`, the division used by the fraction-free
subresultant chain of the Hankel engine: it must be exact, and it raises
:class:`ExactDivisionError` when a remainder survives.  Over Z[t] its one
exactness check is the final remainder.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from math import comb


class ExactDivisionError(ArithmeticError):
    """A division that had to be exact left a remainder."""


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 for k < 0 or k > n.

    Negative n is rejected: no identity in this package ever needs it, and a
    silent generalized binomial would hide index bugs.
    """
    if n < 0:
        raise ValueError(f"binomial(n={n}, ...): n must be non-negative")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


class UniPoly:
    """Dense univariate polynomial over the integers.

    Coefficients are stored in ascending degree order with trailing zeros
    trimmed, so two UniPoly values are mathematically equal exactly when
    their coefficient tuples are equal.  The zero polynomial is the empty
    tuple.  Instances are immutable but unhashable: a constant compares
    equal to its int, and nothing keys a set or dict by a polynomial.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def monomial(cls, degree: int, c: int = 1) -> "UniPoly":
        if degree < 0:
            raise ValueError("monomial degree must be non-negative")
        return cls((0,) * degree + (c,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def __eq__(self, other) -> bool:
        b = _operand(other)
        return NotImplemented if b is None else self.coeffs == b

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def _add(self, other, sign: int):
        """self + sign * other, in one pass over the padded coefficients."""
        b = _operand(other)
        if b is None:
            return NotImplemented
        out = list(self.coeffs)
        out += [0] * (len(b) - len(out))
        for i, c in enumerate(b):
            out[i] += sign * c
        return UniPoly(out)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        d = self._add(other, -1)
        return d if d is NotImplemented else -d

    def __mul__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        """Quotient self / other when the division is exact in Z[t]; a step
        that does not divide leaves a remainder that no later step reads."""
        b = _operand(other)
        if b is None:
            raise TypeError(f"cannot divide UniPoly by {type(other).__name__}")
        if not b:
            raise ZeroDivisionError("exact division by the zero polynomial")
        rem = list(self.coeffs)
        db = len(b) - 1
        lead = b[-1]
        quo = [0] * (len(rem) - db)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + db]
            if c == 0:
                continue
            q = quo[i] = c // lead
            for j, cb in enumerate(b):
                rem[i + j] -= q * cb
        if any(rem):
            raise ExactDivisionError(f"{self!r} is not divisible by {UniPoly(b)!r}")
        return UniPoly(quo)

    def __call__(self, value: int) -> int:
        """Evaluate at an integer by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self) -> str:
        return f"UniPoly({self.coeffs!r})"

    def __str__(self) -> str:
        """Human form, ascending powers, explicit signs: ``1 - 3*t + t^2``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                head = "t" if e == 1 else f"t^{e}"
                term = head if mag == 1 else f"{mag}*{head}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _operand(other) -> "tuple[int, ...] | None":
    """The coefficients of a ring operand, or None for a foreign one; an int
    is a constant, and 0 is the empty tuple."""
    if isinstance(other, UniPoly):
        return other.coeffs
    if isinstance(other, int):
        return (other,) if other else ()
    return None


Scalar = int | UniPoly

#: The generator t of Z[t].
T = UniPoly((0, 1))


class _Ring(namedtuple("_Ring", "name zero one")):
    """Coefficient ring descriptor (name, zero, one), with scalar coercion."""

    __slots__ = ()

    def coerce(self, value) -> Scalar:
        """The value as a scalar of this ring; a bool is its int, and an int
        is a constant of Z[t]."""
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, type(self.one)):
            return value
        if isinstance(value, int):  # so this ring is Z[t]
            return UniPoly((value,))
        raise TypeError(f"{value!r} is not a scalar of {self.name}")


INTEGER_RING = _Ring("ZZ", 0, 1)
POLY_RING = _Ring("ZZ[t]", UniPoly(), UniPoly((1,)))


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """Exact division in the dividend's ring; an int is not divided by a
    UniPoly (TypeError).  Raises ExactDivisionError when the quotient would
    not be exact.
    """
    if isinstance(a, UniPoly):
        return a.exact_div(b)
    q, r = divmod(a, b)
    if r:
        raise ExactDivisionError(f"{a} is not divisible by {b}")
    return q
