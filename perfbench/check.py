"""Independent answer checker.

Nothing here imports ``catalan_hankel``.  Expected values come from two
sources the library does not share code with:

* the closed form catalan_conv(k, n) = k/(n+k) * C(2n+k-1, n), built with
  ``math.comb``, which is also every Narayana convolution value at t = 1;
* the Prop 1 ballot recurrence for the Narayana convolution at t = 2: the
  weight sum of up-down paths of length 2n+k-1 ending at height k-1, where a
  down step landing at odd height weighs t.

Determinants are compared modulo the Mersenne prime 2^61 - 1, so a wrong
exact value passes with probability about 2^-61.
"""

from __future__ import annotations

import json
from math import comb

P = (1 << 61) - 1

# Report count of ``verify --suite all``; any other count fails the request.
VERIFY_REPORTS = 1294


def catalan_conv(k: int, n: int) -> int:
    if n < 0:
        return 0
    return k * comb(2 * n + k - 1, n) // (n + k)


def ballot_values(k: int, n_max: int, t: int) -> list[int]:
    """Narayana convolution values at weight t for n = 0..n_max."""
    out = [1] if k == 1 else []
    row = [1]  # path weight sums by end height, for the current length
    for length in range(1, 2 * n_max + k):
        nxt = [0] * (length + 1)
        for h, v in enumerate(row):
            if v:
                nxt[h + 1] += v
                if h:
                    nxt[h - 1] += v * t if (h - 1) % 2 else v
        row = nxt
        if length >= k - 1 and (length - k + 1) % 2 == 0:
            out.append(row[k - 1])
    return out[: n_max + 1]


def det_mod(rows: list[list[int]]) -> int:
    """Determinant modulo P by Gaussian elimination with pivot search."""
    a = [[x % P for x in row] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % P
        inv = pow(a[c][c], P - 2, P)
        top = a[c]
        for r in range(c + 1, n):
            f = a[r][c] * inv % P
            if f:
                a[r] = [(x - f * y) % P for x, y in zip(a[r], top)]
    return det % P


def hankel_dets_mod(values: list[int], shift: int, sizes) -> dict[int, int]:
    """det(values[i+j+shift]) mod P for each size; negative indices read 0."""
    def entry(m):
        return values[m] if m >= 0 else 0

    return {
        n: det_mod([[entry(i + j + shift) for j in range(n)] for i in range(n)])
        for n in sizes
    }


def _poly_at(coeffs: list[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class Checker:
    """Expected values per request, computed once and reused every pass."""

    def __init__(self):
        self._expected: dict = {}

    def expected(self, req):
        if req not in self._expected:
            self._expected[req] = self._compute(req)
        return self._expected[req]

    @staticmethod
    def _compute(req):
        if req.command == "verify":
            return VERIFY_REPORTS
        top = req.hi if req.command == "seq" else 2 * req.hi - 2 + req.shift
        top = max(top, 0)
        at1 = [catalan_conv(req.k, n) for n in range(top + 1)]
        at2 = ballot_values(req.k, top, 2) if req.family == "narayana-conv" else None
        if req.command == "seq":
            return {"t1": at1, "t2": at2}
        sizes = range(req.lo, req.hi + 1)
        return {
            "t1": hankel_dets_mod(at1, req.shift, sizes),
            "t2": hankel_dets_mod(at2, req.shift, sizes) if at2 is not None else None,
        }

    def failures(self, req, exit_code: int, stdout: str) -> tuple[int, int]:
        """(attempted, failed) operations for one request's output.

        A ``verify`` request counts one operation per expected report; any
        other request counts as one operation that fails on a non-zero exit
        or on any value that disagrees with the expected ones.
        """
        if req.command == "verify":
            return VERIFY_REPORTS, self._verify_failures(exit_code, stdout)
        try:
            ok = exit_code == 0 and self._rows_ok(req, stdout)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        return 1, 0 if ok else 1

    def _verify_failures(self, exit_code: int, stdout: str) -> int:
        lines = stdout.splitlines()
        if len(lines) != VERIFY_REPORTS:
            return VERIFY_REPORTS
        try:
            failed = sum(json.loads(line)["status"] != "pass" for line in lines)
        except (ValueError, KeyError, TypeError):
            return VERIFY_REPORTS
        if (exit_code != 0) != (failed > 0):
            return VERIFY_REPORTS
        return failed

    def _rows_ok(self, req, stdout: str) -> bool:
        exp = self.expected(req)
        rows = [json.loads(line) for line in stdout.splitlines()]
        lo = 0 if req.command == "seq" else req.lo
        if [r["n"] for r in rows] != list(range(lo, req.hi + 1)):
            return False
        poly = req.family == "narayana-conv"
        for r in rows:
            n, v = r["n"], r["value"]
            if poly:
                if not isinstance(v, list):
                    return False
                v1, v2 = sum(v), _poly_at(v, 2)
            else:
                if not isinstance(v, int):
                    return False
                v1, v2 = v, None
            if req.command == "seq":
                if v1 != exp["t1"][n] or (poly and v2 != exp["t2"][n]):
                    return False
            elif v1 % P != exp["t1"][n] or (poly and v2 % P != exp["t2"][n]):
                return False
        return True
