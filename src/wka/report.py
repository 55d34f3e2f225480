"""Verification reports: named residual checks with a pass/fail verdict."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .tensorkit import Tolerance

__all__ = ["CheckResult", "VerificationReport"]


@dataclass
class CheckResult:
    name: str
    residual: float
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    """Ordered list of named checks; verdict is pass iff every check passed.

    Checks are recorded with add(), which passes a residual iff it is at
    most the report's abs_tol, or with add_flag() for boolean conditions.
    """

    title: str
    tol: Tolerance = field(default_factory=Tolerance)
    checks: list = field(default_factory=list)

    def add(self, name: str, residual: float, note: str = ""):
        residual = float(residual)
        self.checks.append(CheckResult(name, residual, residual <= self.tol.abs_tol, note))
        return self

    def add_flag(self, name: str, ok: bool, note: str = ""):
        self.checks.append(CheckResult(name, 0.0 if ok else 1.0, bool(ok), note))
        return self

    def extend(self, other: "VerificationReport", prefix: str = ""):
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.name, c.residual, c.passed, c.note)
            )
        return self

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        # np.max propagates NaN, which max() drops depending on its position
        return float(np.max([c.residual for c in self.checks], initial=0.0))

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def as_text(self) -> str:
        lines = [f"== {self.title} (abs_tol={self.tol.abs_tol:g}) =="]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            note = f"  {c.note}" if c.note else ""
            lines.append(f"[{tag}] {c.name}: residual={c.residual:.3e}{note}")
        verdict = "pass" if self.passed else "FAIL"
        lines.append(f"verdict: {verdict} (max residual {self.max_residual:.3e})")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "abs_tol": self.tol.abs_tol,
            "verdict": "pass" if self.passed else "fail",
            "max_residual": self.max_residual,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "passed": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)
