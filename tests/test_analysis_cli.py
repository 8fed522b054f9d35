"""Tests for ``python -m repro analyze``: the CLI contract of the linter.

Exit codes (0 clean / 1 findings / 2 usage errors), one-line diagnostics,
``--json`` machine output, parent-directory creation for ``--output`` and
the ``--baseline`` / ``--write-baseline`` workflow.
"""

import json
from pathlib import Path

from repro.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def analyze_args(paths, tmp_path, *extra):
    """CLI argv with the config dir pointed at nothing (isolation)."""
    return [
        "analyze",
        *[str(p) for p in paths],
        "--configs", str(tmp_path / "no-configs"),
        *extra,
    ]


def write_clean(tmp_path):
    src = tmp_path / "clean.py"
    src.write_text("def double(x):\n    return 2 * x\n")
    return src


def write_bad(tmp_path):
    src = tmp_path / "bad.py"
    src.write_text("def key_of(name):\n    return hash(name)\n")
    return src


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        code = main(analyze_args([write_clean(tmp_path)], tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "analyze: clean in 1 files" in out

    def test_findings_exit_one_with_one_line_diagnostics(self, tmp_path, capsys):
        src = write_bad(tmp_path)
        code = main(analyze_args([src], tmp_path))
        assert code == 1
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "[det-hash]" in line]
        assert len(lines) == 1
        assert lines[0].startswith(f"{src.name}:2: [det-hash]") or ":2: [det-hash]" in lines[0]
        assert "analyze: 1 finding(s)" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        code = main(analyze_args([tmp_path / "absent"], tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" == err[err.index("\n"):]  # single line

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        code = main(
            analyze_args([write_clean(tmp_path)], tmp_path, "--rules", "det-nope")
        )
        assert code == 2
        assert "unknown analysis rule" in capsys.readouterr().err

    def test_rule_selection_runs_only_named_rules(self, tmp_path, capsys):
        src = write_bad(tmp_path)
        code = main(
            analyze_args([src], tmp_path, "--rules", "det-wallclock")
        )
        assert code == 0  # det-hash did not run
        assert "1 rules" in capsys.readouterr().out


class TestJsonAndOutput:
    def test_json_output_parses(self, tmp_path, capsys):
        src = write_bad(tmp_path)
        code = main(analyze_args([src], tmp_path, "--json"))
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["n_findings"] == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "det-hash"
        assert finding["line"] == 2
        assert finding["hint"]

    def test_output_creates_parent_directories(self, tmp_path, capsys):
        src = write_clean(tmp_path)
        out_file = tmp_path / "deep" / "nested" / "findings.json"
        code = main(analyze_args([src], tmp_path, "--output", str(out_file)))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["clean"] is True
        assert f"findings written to {out_file}" in capsys.readouterr().out

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        src = write_clean(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(
            analyze_args([src], tmp_path, "--output", str(blocker / "x.json"))
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "det-hash" in out
        assert "concurrency-shared-state" in out
        assert "always on" in out


class TestBaselineWorkflow:
    def test_write_baseline_requires_baseline(self, tmp_path, capsys):
        src = write_bad(tmp_path)
        code = main(analyze_args([src], tmp_path, "--write-baseline"))
        assert code == 2
        assert "--write-baseline requires --baseline" in capsys.readouterr().err

    def test_baseline_round_trip(self, tmp_path, capsys):
        src = write_bad(tmp_path)
        baseline = tmp_path / "ci" / "baseline.json"

        # 1. Accept the current findings (parent dir is created).
        code = main(
            analyze_args(
                [src], tmp_path,
                "--baseline", str(baseline), "--write-baseline",
            )
        )
        assert code == 0
        assert "baseline written" in capsys.readouterr().out
        assert len(json.loads(baseline.read_text())["findings"]) == 1

        # 2. With the baseline, the unchanged tree is clean (exit 0).
        code = main(analyze_args([src], tmp_path, "--baseline", str(baseline)))
        assert code == 0
        assert "1 baselined" in capsys.readouterr().out

        # 3. After the fix, the stale entry itself fails the run ...
        src.write_text("def key_of(name):\n    return len(name)\n")
        code = main(analyze_args([src], tmp_path, "--baseline", str(baseline)))
        assert code == 1
        assert "stale-baseline" in capsys.readouterr().out

        # 4. ... until the baseline is rewritten, now empty.
        code = main(
            analyze_args(
                [src], tmp_path,
                "--baseline", str(baseline), "--write-baseline",
            )
        )
        assert code == 0
        capsys.readouterr()
        assert json.loads(baseline.read_text())["findings"] == []

    def test_malformed_baseline_is_usage_error(self, tmp_path, capsys):
        src = write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        code = main(analyze_args([src], tmp_path, "--baseline", str(baseline)))
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSuppressionThroughCli:
    def test_suppressed_tree_reports_counts(self, tmp_path, capsys):
        src = tmp_path / "mod.py"
        src.write_text(
            "def key_of(name):\n"
            "    return hash(name)  # repro: allow[det-hash] -- demo waiver\n"
        )
        code = main(analyze_args([src], tmp_path))
        assert code == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_real_tree_gate_via_cli(self, capsys):
        """What scripts/ci.sh runs: the real tree, no baseline, exit 0."""
        repo = Path(__file__).parent.parent
        code = main(["analyze", str(repo / "src" / "repro")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "clean" in out
