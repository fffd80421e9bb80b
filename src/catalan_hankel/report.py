"""Check reports: one record per verified parameter tuple.

A report is built from the check id, the parameters that reproduce the case
and both exact sides, and decides its own pass/fail status by ``==``.
Serialization is NDJSON-friendly: ``to_json`` yields one flat dict per report.
"""

from __future__ import annotations

from typing import Any

from .polyring import UniPoly
from .series import Series


def encode_value(v: Any):
    """JSON-encodable form: UniPoly as its coefficient list, Series as
    {order, coeffs}, containers element-wise."""
    if isinstance(v, UniPoly):
        return list(v.coeffs)
    if isinstance(v, Series):
        return {"order": v.order, "coeffs": encode_value(v.coeffs)}
    if isinstance(v, (list, tuple)):
        return [encode_value(e) for e in v]
    return v


def render_value(v: Any) -> str:
    """Human form: polynomials in explicit-sign ascending notation."""
    if isinstance(v, Series):
        inner = ", ".join(render_value(c) for c in v.coeffs)
        return f"[{inner}] + O(x^{v.order})"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(render_value(e) for e in v) + "]"
    return str(v)


class CheckReport:
    """One check of two exact values; ``ok`` is whether they are equal.

    Two series are compared, and reported, at the smaller of their orders:
    only those coefficients are known on both sides.  Reports compare by
    identity, and nothing changes one after it is built.
    """

    def __init__(self, check: str, params: dict[str, Any], lhs: Any, rhs: Any):
        if isinstance(lhs, Series) and isinstance(rhs, Series):
            n = min(lhs.order, rhs.order)
            lhs = Series.from_polynomial(lhs.ring, lhs.coeffs, n)
            rhs = Series.from_polynomial(rhs.ring, rhs.coeffs, n)
        self.check, self.params, self.lhs, self.rhs = check, params, lhs, rhs
        self.ok = bool(lhs == rhs)

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": {k: encode_value(v) for k, v in self.params.items()},
            "status": self.status,
            "lhs": encode_value(self.lhs),
            "rhs": encode_value(self.rhs),
        }

    def __str__(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return (
            f"[{self.status}] {self.check}({ps}): "
            f"{render_value(self.lhs)} vs {render_value(self.rhs)}"
        )

