"""Weighted non-negative up-down lattice paths.

A path takes steps +1 (up) or -1 (down), one x-unit each, never dips below
the axis, and is weighted t^(number of down steps that land at odd height).
The weight sum over all paths of given length and end height refines the
ballot numbers: summing with t = 1 counts the paths, and the weight sum for
paths of length 2n + k - 1 ending at height k - 1 equals the n-th
coefficient of the k-th mixed convolution power.

Enumeration is one depth-first walk that yields each path with its weight
as it is found.  Its cost grows exponentially with the length, and the
library sets no bound: the CLI's limit table bounds ``paths --list``.  The
table form of the weight sum is read from the closed form of
``narayana_conv``.  Both forms ask ``_reachable`` which ends have a path.
"""

from __future__ import annotations

from collections.abc import Iterator

from .polyring import UniPoly
from .families import narayana_conv


def enumerate_paths(length: int, height: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every path of the given length ending at the given height, lazily.

    Yields ``(heights, odd_downs)``: the running heights after each step and
    the number of down steps that land at odd height, so the path weighs
    t^odd_downs.  Paths come in lexicographic order of their steps, up
    before down.  The arguments are checked here, at the call, not at the
    first ``next``; an end no path reaches gives an empty iterator.
    """
    return _walk(length, height) if _reachable(length, height) else iter(())


def _reachable(length: int, height: int) -> bool:
    """Whether some path of the given length ends at the given height;
    negative arguments raise ValueError."""
    if length < 0:
        raise ValueError(f"path length {length} must be >= 0")
    if height < 0:
        raise ValueError(f"end height {height} must be >= 0")
    return height <= length and (length - height) % 2 == 0


def _walk(length: int, height: int) -> Iterator[tuple[tuple[int, ...], int]]:
    if length == 0:
        yield (), 0
        return
    last = length - 1
    final_nu = height % 2  # an odd-down count added by a last step down
    heights = [0] * length
    heights[last] = height
    # (pos, h, nu): after pos steps the walk is at height h with nu odd
    # landings.  A popped state writes heights[pos - 1]; the entries before
    # it were written by its ancestors.  Down is pushed first, so up pops
    # first.  A child must stay within `rem` of `height`; only the side it
    # moved towards needs checking, the parent's bound covers the other.
    stack = [(0, 0, 0)]
    while stack:
        pos, h, nu = stack.pop()
        if pos:
            heights[pos - 1] = h
        if pos == last:
            # One step is left and it must land at `height`.
            yield tuple(heights), (nu + final_nu if h > height else nu)
            continue
        rem = last - pos
        nh = h - 1
        if nh >= 0 and height - nh <= rem:
            stack.append((pos + 1, nh, nu + nh % 2))
        if h + 1 - height <= rem:
            stack.append((pos + 1, h + 1, nu))


def path_weight_sum(length: int, height: int) -> UniPoly:
    """Sum of weights over all paths of the given length and end height:
    a tally of the odd-down counts that ``enumerate_paths`` yields."""
    counts = [0] * (length // 2 + 1)
    for _, odd_downs in enumerate_paths(length, height):
        counts[odd_downs] += 1
    return UniPoly(counts)


def path_weight_sum_table(length: int, height: int) -> UniPoly:
    """Same weight sum from the closed form of the mixed power.

    Splitting off the last step gives a(L, h) = a(L-1, h-1) + w * a(L-1, h+1)
    with w = t for an odd landing height h, else 1.  With k = h + 1 and
    L = 2n + k - 1 that is the ballot recurrence of Prop 1, whose solution
    is the mixed power coefficient ``narayana_conv(k, n)``, so the sum is
    read from its closed form.  Independent of the enumeration above, which
    is what makes the agreement test meaningful.
    """
    if not _reachable(length, height):
        return UniPoly()
    return narayana_conv(height + 1, (length - height) // 2)

