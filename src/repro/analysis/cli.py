"""Implementation of ``python -m repro analyze`` (argparse lives in
:mod:`repro.__main__`, behaviour lives here).

The subcommand follows the established CLI contract: one-line diagnostics
(never a traceback), exit 0 when clean / 1 when there are findings / 2 on
usage errors, ``--json`` machine output on stdout, and parent directories
created for ``--output``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.analysis.baseline import BaselineError, write_baseline
from repro.analysis.engine import run_analysis
from repro.analysis.project import AnalysisProject
from repro.analysis.registry import ANALYSIS_RULES, RuleError


def _print_rules() -> int:
    print("analysis rules — static invariant checks of `repro analyze`")
    for rule_id, rule_cls in ANALYSIS_RULES.items():
        print(f"  {rule_id:<24s} {rule_cls.describe()}")
    print(
        "  (always on: parse-error, malformed-suppression, "
        "unused-suppression, stale-baseline)"
    )
    return 0


def run_cli(args: argparse.Namespace) -> int:
    """Execute the analyze subcommand; returns the process exit code."""
    if args.list_rules:
        return _print_rules()

    paths: List[str] = args.paths or ["src/repro"]
    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
        unknown = [rule_id for rule_id in rule_ids if rule_id not in ANALYSIS_RULES]
        if unknown:
            print(
                f"error: unknown analysis rule(s) {', '.join(unknown)}; "
                f"available: {', '.join(ANALYSIS_RULES.available())}",
                file=sys.stderr,
            )
            return 2
    if args.write_baseline and not args.baseline:
        print("error: --write-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    try:
        project = AnalysisProject.from_paths(paths, configs_dir=args.configs)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_analysis(
            project,
            rule_ids=rule_ids,
            # While (re)writing the baseline the current findings must not
            # be filtered by the old one, or fixed entries would survive.
            baseline_path=None if args.write_baseline else args.baseline,
        )
    except (BaselineError, RuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        n_entries = write_baseline(args.baseline, result.findings)
        print(f"baseline written to {args.baseline} ({n_entries} entries)")
        return 0

    if args.output:
        output = Path(args.output)
        try:
            output.parent.mkdir(parents=True, exist_ok=True)
            output.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        except OSError as exc:
            print(f"error: cannot write findings {output}: {exc}", file=sys.stderr)
            return 2
        print(f"findings written to {output}")

    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0 if result.clean else 1

    for finding in result.findings:
        print(finding.format())
    status = "clean" if result.clean else f"{len(result.findings)} finding(s)"
    extras = []
    if result.baselined:
        extras.append(f"{len(result.baselined)} baselined")
    if result.n_suppressed:
        extras.append(f"{result.n_suppressed} suppressed")
    suffix = f" ({', '.join(extras)})" if extras else ""
    print(
        f"analyze: {status} in {result.n_files} files, "
        f"{len(result.rules)} rules{suffix}"
    )
    return 0 if result.clean else 1
