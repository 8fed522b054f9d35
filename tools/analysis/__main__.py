"""Command line of the invariant linter: ``python -m tools.analysis [PATHS]``.

Run from the repository root.  One-line diagnostics (never a traceback),
exit 0 when clean / 1 when there are findings / 2 on usage errors, and
``--json`` machine output on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine import run_analysis
from .project import AnalysisProject
from .registry import ANALYSIS_RULES

#: What CI lints: the program and this tool itself.
DEFAULT_PATHS = ("src/repro", "tools/analysis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Static invariant linter of the repro source tree.",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=f"files or directories to analyze (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable findings on stdout"
    )
    parser.add_argument(
        "--configs", default=None, metavar="DIR",
        help="config JSONs for the override contract "
             "(default: <root>/examples/configs)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the registered rules"
    )
    return parser


def _print_rules() -> int:
    print("analysis rules — static invariant checks of `python -m tools.analysis`")
    for rule_id, rule_cls in ANALYSIS_RULES.items():
        print(f"  {rule_id:<24s} {rule_cls.describe()}")
    print("  (always on: parse-error, malformed-suppression, unused-suppression)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Execute the linter; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _print_rules()

    try:
        project = AnalysisProject.from_paths(
            args.paths or list(DEFAULT_PATHS), configs_dir=args.configs
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_analysis(project)

    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0 if result.clean else 1

    for finding in result.findings:
        print(finding.format())
    status = "clean" if result.clean else f"{len(result.findings)} finding(s)"
    suffix = f" ({result.n_suppressed} suppressed)" if result.n_suppressed else ""
    print(
        f"analyze: {status} in {result.n_files} files, "
        f"{len(result.rules)} rules{suffix}"
    )
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
