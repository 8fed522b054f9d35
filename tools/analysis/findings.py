"""The unit of analyzer output: one finding.

A finding names the rule that fired, where it fired (repo-relative path +
line) and what to do about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Rule ids of the analyzer's own bookkeeping checks.  They are always on
#: (not registry entries) and cannot be suppressed with an allow comment:
#: the file, directive or waiver they name has to be fixed.
META_RULES = (
    "parse-error",
    "malformed-suppression",
    "unused-suppression",
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: rule id, location, message and a fix hint."""

    rule: str
    path: str
    line: int
    message: str
    hint: str = field(default="", compare=False)

    def format(self) -> str:
        """The one-line CLI form: ``path:line: [rule] message``."""
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (``--json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }


def sort_findings(findings) -> list:
    """Deterministic report order: path, then line, then rule, then text."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))
