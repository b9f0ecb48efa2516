"""The lint data model: findings and severities.

A finding is one rule violation at one source location. Findings are the
unit everything else operates on -- inline suppressions cancel them, the
CLI sorts and prints them -- and they sort by (path, line, column, rule),
so two runs over the same tree produce byte-identical reports (CI diffs
them, the same way it diffs chaos scorecards).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: finding severities, in gate order. ``error`` findings fail the CI
#: gate; ``warning`` findings are reported but never fail a run.
ERROR = "error"
WARNING = "warning"
SEVERITIES = (ERROR, WARNING)


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: source text of the offending line (shown in reports)
    line_text: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        """Plain-data form for the JSONL report."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text.strip(),
        }
