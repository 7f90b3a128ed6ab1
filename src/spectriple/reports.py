"""Uniform pass/fail reporting for axiom and theorem checkers.

Reports carry one line per verified condition plus a free-form data dict for
computed quantities (inferred signs, dimensions, branch taken).  Residuals
are included even in exact mode, where a passing check's is always 0.0, so
both scalar backends share one schema.  Report.sweep is the one way a check
over many residual matrices (basis elements, basis pairs) is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    residual: float = 0.0
    detail: str = ""


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, residual: float = 0.0, detail: str = "") -> Check:
        check = Check(name, bool(passed), float(residual), detail)
        self.checks.append(check)
        return check

    def sweep(self, name: str, residuals, detail: str = "") -> Check:
        """Check that every matrix in lazily consumed (label, residual) pairs is zero.

        On failure: the largest entry of the worst residual, labelled by the
        last among equals.  On success: residual 0.0 and the given detail."""
        ok, worst, offender = True, 0.0, ""
        for label, residual in residuals:
            if not residual.is_zero():
                ok = False
                size = residual.max_abs()
                if size >= worst:
                    worst, offender = size, label
        return self.add(name, ok, worst, detail if ok else offender)

    def extend(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.passed, c.residual, c.detail))
        for k, v in other.data.items():
            self.data.setdefault(prefix + k if prefix else k, v)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "residual": c.residual, "detail": c.detail}
                for c in self.checks
            ],
            "data": _plain(self.data),
        }

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name} (residual={c.residual:.3g})"
            if c.detail:
                line += f" -- {c.detail}"
            lines.append(line)
        for k, v in self.data.items():
            lines.append(f"  {k}: {_plain(v)}")
        lines.append(f"result: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _plain(value):
    """JSON-safe rendering of report data values."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)
