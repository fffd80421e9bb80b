"""Check reports: one record per verified parameter tuple.

A report is built from the check id, the parameters that reproduce the case
and both exact sides, and decides its own pass/fail status by ``==``.
``dumps`` is the package's one JSON encoder: ``to_json`` and the CLI write
every JSON line and csv cell with it.
"""

from __future__ import annotations

import json

from .polyring import UniPoly
from .series import Series


def _plain(v):
    """The JSON form of a value ``json`` has none for: a UniPoly as its coefficient
    list, each through ``int`` (a bool reads as 0 or 1), a Series as {order, coeffs}."""
    if isinstance(v, UniPoly):
        return [*map(int, v.coeffs)]
    if isinstance(v, Series):
        return {"order": v.order, "coeffs": v.coeffs}
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


#: One compact JSON line of ints, UniPolys and Series in lists, tuples and dicts.
#: An int over Python's int-to-str digit limit (4300 digits since 3.10.7)
#: raises ValueError unless the caller lifts the limit, as ``cli.main`` does.
dumps = json.JSONEncoder(separators=(",", ":"), default=_plain).encode


def render_value(v) -> str:
    """Human form: polynomials in explicit-sign ascending notation."""
    if isinstance(v, Series):
        inner = ", ".join(render_value(c) for c in v.coeffs)
        return f"[{inner}] + O(x^{v.order})"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(render_value(e) for e in v) + "]"
    return str(v)


class CheckReport:
    """One check of two exact values; ``ok`` is whether they are equal.

    The sides are compared and reported exactly as given, so two series
    are equal only at the same order.  Reports compare by identity, and
    nothing changes one after it is built.
    """

    def __init__(self, check: str, params: dict, lhs, rhs):
        self.check, self.params, self.lhs, self.rhs = check, params, lhs, rhs
        self.ok = bool(lhs == rhs)

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_json(self) -> str:
        """The report as one compact JSON line (see ``dumps``)."""
        return dumps({
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
        })

    def __str__(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return (
            f"[{self.status}] {self.check}({ps}): "
            f"{render_value(self.lhs)} vs {render_value(self.rhs)}"
        )

