"""The analyzer engine: run every rule, then apply the suppressions.

The pipeline is deliberately ordered:

1. every registered rule runs over the project and yields raw findings
   (plus any ``parse-error`` findings collected while loading);
2. per-line ``# repro: allow[...]`` suppressions filter them, *marking
   usage* as they match;
3. malformed and unused suppressions are appended as findings of their own
   (a waiver that silences nothing is debt).

The returned result is deterministic: findings are sorted by path, line,
rule and message, so two runs over the same tree are diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .findings import Finding, sort_findings
from .project import AnalysisProject
from .registry import ANALYSIS_RULES


@dataclass
class AnalysisResult:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    """Unsuppressed findings; non-empty means exit 1."""
    n_suppressed: int = 0
    """Findings silenced by allow comments."""
    n_files: int = 0
    """Analyzed Python files."""
    rules: List[str] = field(default_factory=list)
    """Rule ids that ran."""

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """JSON document for ``--json``."""
        return {
            "clean": self.clean,
            "n_files": self.n_files,
            "n_findings": len(self.findings),
            "n_suppressed": self.n_suppressed,
            "rules": list(self.rules),
            "findings": [finding.to_dict() for finding in self.findings],
        }


def run_analysis(project: AnalysisProject) -> AnalysisResult:
    """Run every registered rule over *project*."""
    raw: List[Finding] = list(project.parse_failures)
    rules = ANALYSIS_RULES.items()
    for _, rule_cls in rules:
        raw.extend(rule_cls().check(project))

    modules_by_rel = {module.rel: module for module in project.modules}
    kept: List[Finding] = []
    n_suppressed = 0
    for finding in raw:
        module = modules_by_rel.get(finding.path)
        if module is not None and module.suppressions.suppresses(
            finding.rule, finding.line
        ):
            n_suppressed += 1
        else:
            kept.append(finding)
    # Suppression bookkeeping runs after all rules consumed their matches.
    for module in project.modules:
        kept.extend(module.suppressions.leftover_findings(module.rel))

    return AnalysisResult(
        findings=sort_findings(kept),
        n_suppressed=n_suppressed,
        n_files=len(project.modules),
        rules=[rule_id for rule_id, _ in rules],
    )
