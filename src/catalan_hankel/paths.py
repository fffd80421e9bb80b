"""Weighted non-negative up-down lattice paths.

A path takes steps +1 (up) or -1 (down), one x-unit each, never dips below
the axis, and is weighted t^(number of down steps that land at odd height).
The weight sum over all paths of given length and end height refines the
ballot numbers: summing with t = 1 counts the paths, and the weight sum for
paths of length 2n + k - 1 ending at height k - 1 equals the n-th
coefficient of the k-th mixed convolution power.

Enumeration is depth-first with no path storage when only the weight sum is
needed; an explicit cap on the step count keeps the exponential walk in
check.  The table form of the weight sum, read from the closed form of
``narayana_conv``, has no cap.
"""

from __future__ import annotations

from .polyring import UniPoly
from .report import CheckReport, equal_report
from .families import mixed_power_series, narayana_conv

DEFAULT_CAP = 22


class EnumerationCapError(ValueError):
    """The requested walk length exceeds the configured enumeration cap."""


def _guard(length: int, height: int, cap: int):
    if length < 0:
        raise ValueError(f"path length {length} must be >= 0")
    if height < 0:
        raise ValueError(f"end height {height} must be >= 0")
    if length > cap:
        raise EnumerationCapError(
            f"length {length} exceeds the enumeration cap {cap}"
        )


def enumerate_paths(length: int, height: int, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """All step sequences of the given length ending at the given height.

    Paths are emitted in lexicographic order with up before down.
    """
    _guard(length, height, cap)
    out: list[tuple[int, ...]] = []
    if height > length or (length - height) % 2:
        return out
    steps: list[int] = []

    def walk(pos: int, h: int):
        if pos == length:
            out.append(tuple(steps))
            return
        rem = length - pos - 1
        for step in (1, -1):
            nh = h + step
            if nh < 0 or abs(height - nh) > rem:
                continue
            steps.append(step)
            walk(pos + 1, nh)
            steps.pop()

    walk(0, 0)
    return out


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


def path_weight_sum(length: int, height: int, cap: int = DEFAULT_CAP) -> UniPoly:
    """Sum of weights over all paths of the given length and end height.

    Depth-first walk tallying the odd-down-step count per path; no path is
    materialized.
    """
    _guard(length, height, cap)
    if height > length or (length - height) % 2:
        return UniPoly()
    counts = [0] * (length // 2 + 1)

    def walk(pos: int, h: int, nu: int):
        if pos == length:
            counts[nu] += 1
            return
        rem = length - pos - 1
        nh = h + 1
        if abs(height - nh) <= rem:
            walk(pos + 1, nh, nu)
        nh = h - 1
        if nh >= 0 and abs(height - nh) <= rem:
            walk(pos + 1, nh, nu + (nh % 2))

    walk(0, 0, 0)
    return UniPoly(counts)


def path_weight_sum_table(length: int, height: int) -> UniPoly:
    """Same weight sum from the closed form of the mixed power, no cap.

    Splitting off the last step gives a(L, h) = a(L-1, h-1) + w * a(L-1, h+1)
    with w = t for an odd landing height h, else 1.  With k = h + 1 and
    L = 2n + k - 1 that is the ballot recurrence of Prop 1, whose solution
    is the mixed power coefficient ``narayana_conv(k, n)``, so the sum is
    read from its closed form.  Independent of the enumeration above, which
    is what makes the agreement test meaningful.
    """
    if length < 0 or height < 0:
        raise ValueError("length and height must be >= 0")
    if height > length or (length - height) % 2:
        return UniPoly()
    return narayana_conv(height + 1, (length - height) // 2)


def check_path_weight_identity(k: int, n: int, cap: int = DEFAULT_CAP) -> CheckReport:
    """Weight sum of paths to (2n + k - 1, k - 1) vs the x^n coefficient of
    the k-th mixed convolution power."""
    if k < 1:
        raise ValueError(f"convolution power k={k} must be >= 1")
    if n < 0:
        raise ValueError(f"index n={n} must be >= 0")
    length = 2 * n + k - 1
    lhs = path_weight_sum(length, k - 1, cap)
    rhs = mixed_power_series(k, n + 1).coefficient(n)
    return equal_report(
        "paths/weight-identity", {"k": k, "n": n, "length": length}, lhs, rhs
    )
