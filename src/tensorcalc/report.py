"""Check records and machine-readable verification reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "IdentityResult",
    "CheckRecord",
    "VerificationReport",
    "make_check",
    "convergence_csv",
]

SCHEMA_VERSION = 1

Number = Union[float, List]


def _jsonable(value) -> Number:
    arr = np.asarray(value)
    if arr.ndim == 0:
        return float(arr)
    return arr.tolist()


@dataclass
class IdentityResult:
    """Two sides of an identity, with named pieces of the right side, and
    their Frobenius distance."""

    lhs: np.ndarray
    rhs: np.ndarray
    pieces: dict = field(default_factory=dict)

    @property
    def abs_residual(self) -> float:
        return float(np.linalg.norm(np.ravel(self.lhs - self.rhs)))

    @property
    def rel_residual(self) -> float:
        scale = max(
            float(np.linalg.norm(np.ravel(self.lhs))),
            float(np.linalg.norm(np.ravel(self.rhs))),
            1.0,
        )
        return self.abs_residual / scale


@dataclass
class CheckRecord:
    """One verified identity: what was compared, how close, and the verdict.

    ``measure`` says which residual the tolerance applies to ("rel" uses
    max(1, max(|lhs|, |rhs|)) as the scale); a "floor" must stay at or
    above its tolerance.  ``geometry`` names the case the check ran on, for
    checks of a suite that has a geometry.
    """

    id: str
    identity: str
    lhs: Number
    rhs: Number
    abs_residual: float
    rel_residual: float
    tolerance: float
    measure: str
    passed: bool
    details: Dict[str, float] = field(default_factory=dict)
    geometry: Optional[str] = None

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "identity": self.identity,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "tolerance": self.tolerance,
            "measure": self.measure,
            "pass": self.passed,
        }
        if self.geometry is not None:
            out["geometry"] = self.geometry
        if self.details:
            out["details"] = self.details
        return out


def make_check(
    check_id: str,
    identity: str,
    lhs,
    rhs,
    tolerance: float,
    measure: str = "rel",
    details: Optional[Dict[str, float]] = None,
) -> CheckRecord:
    """Build the record of one check of kind ``measure``.

    ``rel`` and ``abs`` compare two values by their Frobenius distance and
    pass when that residual (divided by max(1, |lhs|, |rhs|) for ``rel``)
    is at most the tolerance.  ``bound`` and ``floor`` judge the number
    ``lhs`` alone, recorded as both residuals, and ignore ``rhs``: a bound
    passes when the value is at most the tolerance (recorded with rhs 0 and
    measure ``abs``), a floor when it is at least the tolerance (recorded
    as rhs).  A NaN value fails every kind.
    """
    tol = float(tolerance)
    if measure in ("bound", "floor"):
        value = abs_res = rel_res = float(lhs)
        lhs, rhs = value, (tol if measure == "floor" else 0.0)
    else:
        res = IdentityResult(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
        abs_res, rel_res = res.abs_residual, res.rel_residual
        value = rel_res if measure == "rel" else abs_res
        lhs, rhs = _jsonable(lhs), _jsonable(rhs)
    return CheckRecord(
        id=check_id,
        identity=identity,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_res,
        rel_residual=rel_res,
        tolerance=tol,
        measure="abs" if measure == "bound" else measure,
        passed=bool(value >= tol if measure == "floor" else value <= tol),
        details=dict(details or {}),
    )


@dataclass
class VerificationReport:
    suite: str
    config: Dict[str, object]
    checks: List[CheckRecord]
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": self.passed,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def summary_lines(self) -> List[str]:
        lines = []
        for c in self.checks:
            verdict = "pass" if c.passed else "FAIL"
            lines.append(
                f"[{verdict}] {c.id}: {c.measure} residual {c.abs_residual:.3e}"
                f" (rel {c.rel_residual:.3e}, tol {c.tolerance:.1e})"
            )
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"{status}: {sum(c.passed for c in self.checks)}/{len(self.checks)} checks")
        return lines


def convergence_csv(rows: Sequence[dict]) -> str:
    """Render convergence rows as CSV with a monotone-decay flag per row.

    Each row needs: quantity, parameter, value, residual.  The decreasing
    flag compares against the previous row of the same quantity.
    """
    out = ["quantity,parameter,value,residual,decreasing"]
    last: Dict[str, float] = {}
    for r in rows:
        q = r["quantity"]
        res = float(r["residual"])
        prev = last.get(q)
        dec = "" if prev is None else str(res < prev).lower()
        last[q] = res
        out.append(f"{q},{r['parameter']},{r['value']:.6g},{res:.12e},{dec}")
    return "\n".join(out) + "\n"
