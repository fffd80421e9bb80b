"""The sequence and polynomial families whose Hankel determinants we study.

Integer side
    ``catalan_conv(k, n)``  coefficient of x^n in c(x)^k, where c is the
                            Catalan generating function; closed form
                            k/(n+k) * C(2n+k-1, n), an integer for all k >= 1.
                            At k = 1 these are the Catalan numbers
                            1, 1, 2, 5, 14, 42, ...

Polynomial side (weight variable t)
    The Narayana polynomial C_n(t) is ``narayana_conv(1, n)``; at t=1 it
    collapses to the Catalan number catalan_conv(1, n).
    ``narayana_series(order)``           c0(x,t) = sum C_n(t) x^n
    ``narayana_series_weighted(order)``  c1(x,t) = 1 + t * sum_{n>=1} C_n(t) x^n
    ``mixed_powers(k_max, order)``       [c^(0), ..., c^(k_max)], the
        alternating products c^(0) = 1, c^(k) = c^(k-1) * c0 for odd k and
        c^(k-1) * c1 for even k, whose x^n coefficient
        ``narayana_conv(k, n)`` reduces to catalan_conv(k, n) at t=1.
    ``narayana_conv(k, n)`` closed form for n >= 1: with a = ceil(k/2),
                            b = floor(k/2), the t^i coefficient is
        (a C(n+b, i) C(n+a-1, n-1-i) + b C(n+a, n-i) C(n+b-1, i-1)) / n.
        It is Lagrange inversion of u = x c0 c1 = x (1+u)(1+tu), where
        c0 = 1+u and c1 = 1+tu, so the k-th power is (1+u)^a (1+tu)^b.
        ``mixed_powers`` stays the generating-function side of the
        verification suites.

Lucas side
    ``lucas(n, x, s)``      L_0 = 2, L_1 = x, L_n = x L_{n-1} + s L_{n-2},
                            generic over any operands with +, *.
    ``companion_poly(k)``     L_k(1, -x), the integer companion polynomial.
    ``companion_poly_t(k)``   its t-refinement; degree floor((k+1)/2) in x.

Everything is exact, and the module keeps no state: callers that read a
series more than once build it once and hold it.  Every series here is
built by ``Series(ring, coeffs, order)``, so each builder returns exactly
``order`` coefficients and the constructor refuses a negative order for
all of them.  ``Family(kind, k)`` reads k as an integer when it is built.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from math import comb

from .polyring import INTEGER_RING, POLY_RING, T, UniPoly, _Ring
from .series import Series


def catalan_conv(k: int, n: int) -> int:
    """Coefficient of x^n in the k-th power of the Catalan series."""
    if k < 1:
        raise ValueError(f"convolution power k={k} must be >= 1")
    if n < 0:
        return 0
    return k * comb(2 * n + k - 1, n) // (n + k)


def catalan_series(order: int) -> Series:
    return Series(INTEGER_RING, (catalan_conv(1, n) for n in range(order)), order)


def narayana_series(order: int) -> Series:
    """c0(x,t): ordinary generating function of the Narayana polynomials."""
    return Series(POLY_RING, (narayana_conv(1, n) for n in range(order)), order)


def narayana_series_weighted(order: int) -> Series:
    """c1(x,t) = 1 - t + t*c0(x,t): every positive-index coefficient gains t."""
    coeffs = (T * narayana_conv(1, n) if n else 1 for n in range(order))
    return Series(POLY_RING, coeffs, order)


def mixed_powers(k_max: int, order: int) -> list[Series]:
    """[c^(0), ..., c^(k_max)], each power one product from the last.

    c^(0) is the constant series 1, and c^(k) multiplies c^(k-1) by c0 for
    odd k and by c1 for even k.  At t = 1 both factors collapse to the
    Catalan series, so the x^n coefficient evaluates to catalan_conv(k, n).
    """
    if k_max < 0:
        raise ValueError(f"convolution power k_max={k_max} must be >= 0")
    factors = (narayana_series_weighted(order), narayana_series(order))
    powers = [Series(POLY_RING, [1], order)]
    for k in range(1, k_max + 1):
        powers.append(powers[-1] * factors[k % 2])
    return powers


def narayana_conv(k: int, n: int) -> UniPoly:
    """Coefficient of x^n in the k-th mixed convolution power, by the
    Lagrange inversion closed form of the module docstring."""
    if k < 1:
        raise ValueError(f"convolution power k={k} must be >= 1")
    if n < 0:
        return UniPoly()
    if n == 0:
        return UniPoly((1,))
    a, b = (k + 1) // 2, k // 2
    # C(n+a-1, n-1-i) and C(n+b-1, i-1) by symmetry: no lower index is negative.
    return UniPoly(
        [
            (a * comb(n + b, i) * comb(n + a - 1, a + i)
             + b * comb(n + a, n - i) * comb(n + b - 1, n + b - i)) // n
            for i in range(n + 1)
        ]
    )


def lucas(n: int, x, s):
    """Lucas polynomial L_n evaluated on any commutative operands.

    L_0 = 2, L_1 = x, L_n = x*L_{n-1} + s*L_{n-2}.  Works for ints,
    UniPoly and Series operands alike; 2 is formed inside the operand ring.
    """
    if n < 0:
        raise ValueError(f"Lucas index n={n} must be >= 0")
    two = x * 0 + 2
    a, b = two, x
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, x * b + s * a
    return b


def companion_poly(k: int) -> UniPoly:
    """L_k(1, -x) as a polynomial in x; degree floor(k/2).

    First few: 1; 1 - 2x; 1 - 3x; 1 - 4x + 2x^2; 1 - 5x + 5x^2.
    """
    if k < 1:
        raise ValueError(f"companion index k={k} must be >= 1")
    return lucas(k, UniPoly((1,)), UniPoly((0, -1)))


def companion_poly_t(k: int) -> Series:
    """t-refined companion polynomial, as a series in x over Z[t].

    Even index 2j:  L_j(1 - (1+t)x, -t x^2).
    Odd index 2j+1: xt * L_j(...) + L_{j+1}(...), same arguments.
    The x-degree is floor((k+1)/2) and the series order is one past it, so
    the value is the whole polynomial.  At t=1 it collapses to
    companion_poly(k).
    """
    if k < 1:
        raise ValueError(f"companion index k={k} must be >= 1")
    order = (k + 1) // 2 + 1
    x_arg = Series(POLY_RING, [1, UniPoly((-1, -1))], order)
    s_arg = Series(POLY_RING, [0, 0, UniPoly((0, -1))], order)
    half, odd = divmod(k, 2)
    if not odd:
        return lucas(half, x_arg, s_arg)
    xt = Series(POLY_RING, [0, T], order)
    return xt * lucas(half, x_arg, s_arg) + lucas(half + 1, x_arg, s_arg)


CATALAN_CONV = "catalan-conv"
NARAYANA_CONV = "narayana-conv"
FAMILY_KINDS = (CATALAN_CONV, NARAYANA_CONV)


class Family(namedtuple("Family", "kind k")):
    """A convolution-power family: the immutable, hashable pair (kind, k),
    whose ``__new__`` rejects an unknown kind, a k that is not an integer
    (TypeError; a bool reads as its int) or a power k < 1."""

    __slots__ = ()

    def __new__(cls, kind: str, k: int):
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        k = operator.index(k)
        if k < 1:
            raise ValueError(f"convolution power k={k} must be >= 1")
        return super().__new__(cls, kind, k)

    @property
    def ring(self) -> _Ring:
        """Z for the Catalan powers, Z[t] for the Narayana ones."""
        return POLY_RING if self.kind == NARAYANA_CONV else INTEGER_RING

    def value(self, n: int):
        if self.kind == CATALAN_CONV:
            return catalan_conv(self.k, n)
        return narayana_conv(self.k, n)
