"""Residual reports shared by the verification layers."""
from __future__ import annotations

import numbers


def _json_value(v):
    """A params value as JSON: numbers stay numbers, a complex becomes
    [re, im], strings stay strings, anything else its repr."""
    if isinstance(v, str):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Real):
        return float(v)
    if isinstance(v, numbers.Complex):
        return [float(v.real), float(v.imag)]
    return repr(v)


class ResidualReport:
    """One measured identity residual.

    identity   -- name of the checked relation
    params     -- spectral parameters / sizes the check was run at
    residual   -- Frobenius-norm residual
    subspace   -- description of the subspace the residual was measured on
    tolerance  -- pass threshold, if one applies
    """

    __slots__ = ("identity", "residual", "params", "subspace", "tolerance")

    def __init__(self, identity: str, residual: float, params: dict | None = None,
                 subspace: str = "full", tolerance: float | None = None):
        self.identity, self.residual = identity, residual
        self.params = {} if params is None else params
        self.subspace, self.tolerance = subspace, tolerance

    @property
    def passed(self) -> bool | None:
        if self.tolerance is None:
            return None
        return self.residual < self.tolerance

    def as_record(self) -> dict:
        rec = {
            "name": self.identity,
            "params": {k: _json_value(v) for k, v in sorted(self.params.items())},
            "residual": self.residual,
            "subspace": self.subspace,
        }
        if self.tolerance is not None:
            rec["tolerance"] = self.tolerance
            rec["pass"] = bool(self.passed)
        return rec
