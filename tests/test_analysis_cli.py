"""Tests for ``python -m tools.analysis``: the CLI contract of the linter.

Exit codes (0 clean / 1 findings / 2 usage errors), one-line diagnostics,
``--json`` machine output, the options the tool no longer has, and the
removed ``python -m repro analyze`` subcommand pointing at the tool.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from tools.analysis.__main__ import main

REPO_ROOT = Path(__file__).parent.parent


def analyze_args(paths, tmp_path, *extra):
    """CLI argv with the config dir pointed at an empty one (isolation)."""
    configs = tmp_path / "no-configs"
    configs.mkdir(exist_ok=True)
    return [*[str(p) for p in paths], "--configs", str(configs), *extra]


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

    def test_missing_configs_dir_is_usage_error(self, tmp_path, capsys):
        # An explicit --configs must exist: a typo must not switch the
        # config-override-path rule off and still exit 0.
        missing = tmp_path / "absent-configs"
        code = main([str(write_clean(tmp_path)), "--configs", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        code = main(analyze_args([tmp_path / "absent"], tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" == err[err.index("\n"):]  # single line


class TestJson:
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

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "det-hash" in out
        assert "concurrency-shared-state" in out
        assert "always on" in out


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
        """What scripts/ci.sh runs: the program and the tool, exit 0."""
        code = main(
            [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "tools" / "analysis")]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "clean" in out


@pytest.mark.parametrize(
    "option",
    [
        ["--baseline", "baseline.json"],
        ["--write-baseline"],
        ["--rules", "det-hash"],
        ["--output", "findings.json"],
    ],
    ids=lambda option: option[0].lstrip("-"),
)
def test_removed_options_are_usage_errors(option, tmp_path, capsys):
    """The baseline workflow, rule selection and ``--output`` are gone:
    argparse rejects them and nothing is analysed or written."""
    argv = analyze_args([write_bad(tmp_path)], tmp_path, *option)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in captured.err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.py", "no-configs"]


def test_repro_analyze_is_removed_and_names_the_tool(capsys):
    for argv in (
        ["analyze"],
        ["analyze", "src/repro"],
        ["analyze", "--list-rules"],
        ["analyze", "src/repro", "--baseline", "b.json", "--write-baseline"],
        ["analyze", "--rules", "det-wallclock", "--output", "out.json"],
    ):
        assert repro_main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error:")
        assert "python -m tools.analysis" in lines[0]
