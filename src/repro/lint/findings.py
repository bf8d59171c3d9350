"""Findings: what a lint rule reports, and how findings are identified.

A :class:`Finding` is one diagnostic anchored to a file position
(``path:line:col`` — what the human jumps to).  Findings sort by
position so both output modes — text and JSON — are deterministic for a
given tree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SEVERITIES", "Finding"]

#: Recognized severities, strongest first.  Both fail the gate; the
#: distinction is advisory (an ``error`` is a broken invariant, a
#: ``warning`` is a risky pattern).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule's verdict about one source position."""

    path: str          # repo-relative posix path
    line: int          # 1-based
    col: int           # 0-based (ast convention)
    rule_id: str
    message: str
    severity: str = "error"

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def format(self) -> str:
        """The one-line text rendering (``path:line:col: sev [rule] msg``)."""
        return (f"{self.path}:{self.line}:{self.col}: {self.severity}: "
                f"[{self.rule_id}] {self.message}")

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }
