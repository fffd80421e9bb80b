"""Exact scalar arithmetic for the two coefficient rings.

Integers are plain Python ``int`` (arbitrary precision).  Polynomials in the
weight variable t are dense integer-coefficient :class:`UniPoly` values,
and each of their operators reads an int operand as a constant.
``INTEGER_RING`` and ``POLY_RING`` are records (name, zero, one, ``coerce``,
``div``): Z's ``coerce`` is ``operator.index``, and Z[t]'s keeps a UniPoly
and makes an index a constant; any other value raises TypeError.
``div`` is the exact division of the ring's own elements that the
fraction-free subresultant chain of the Hankel engine uses: it raises
:class:`ExactDivisionError` when a remainder survives.  Over Z[t] it is
:meth:`UniPoly.exact_div`, whose one exactness check is the final remainder.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable


class ExactDivisionError(ArithmeticError):
    """A division that had to be exact left a remainder."""


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
        if isinstance(c, bool):
            c = int(c)
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
        if not b:
            return self
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


def _poly_coerce(value) -> UniPoly:
    """A UniPoly stays itself, and an index is a constant of Z[t]."""
    if isinstance(value, UniPoly):
        return value
    return UniPoly((operator.index(value),))


_Ring = namedtuple("_Ring", "name zero one coerce div")


def _int_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ExactDivisionError(f"{a} is not divisible by {b}")
    return q


INTEGER_RING = _Ring("ZZ", 0, 1, operator.index, _int_div)
# looks UniPoly.exact_div up per call, so a wrapper on it sees every division
POLY_RING = _Ring("ZZ[t]", UniPoly(), UniPoly((1,)), _poly_coerce, lambda a, b: a.exact_div(b))
