"""Tests for the invariant linter ``tools.analysis``: rules, suppressions
and self-audit.

The known-bad fixtures under ``tests/fixtures/analysis`` each violate exactly
one rule family; the tests pin that the intended rule (and only that rule)
fires on each.  Suppression behaviour is exercised on temporary trees, and
the final test runs the full analyzer over the paths ``scripts/ci.sh`` lints
— the same standing gate, with no baseline.
"""

import shlex
from pathlib import Path

import pytest

from tools.analysis import ANALYSIS_RULES, AnalysisProject, run_analysis

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).parent.parent


def analyze(paths, tmp_path=None, **kwargs):
    """Run the full rule set over *paths* without real-repo context."""
    if "configs_dir" not in kwargs:
        # Point the config dir at an empty one so fixture analysis does not
        # pick up the real example configs through root inference.
        configs = tmp_path / "no-configs-here"
        configs.mkdir(exist_ok=True)
        kwargs["configs_dir"] = str(configs)
    project = AnalysisProject.from_paths([str(p) for p in paths], **kwargs)
    return run_analysis(project)


class TestKnownBadFixtures:
    @pytest.mark.parametrize(
        "fixture, rule",
        [
            ("det_listdir.py", "det-listdir"),
            ("det_set_order.py", "det-set-order"),
            ("det_wallclock.py", "det-wallclock"),
            ("det_rng.py", "det-rng"),
            ("det_hash.py", "det-hash"),
            ("state_schema.py", "state-schema"),
            ("concurrency.py", "concurrency-shared-state"),
        ],
    )
    def test_fixture_fires_exactly_its_rule(self, fixture, rule, tmp_path):
        result = analyze([FIXTURES / fixture], tmp_path)
        assert result.findings, f"{fixture} produced no findings"
        assert {f.rule for f in result.findings} == {rule}

    def test_config_contract_flags_dead_knob_and_bad_paths(self):
        result = analyze([FIXTURES / "config" / "src"], configs_dir=None)
        by_rule = {}
        for finding in result.findings:
            by_rule.setdefault(finding.rule, []).append(finding.message)
        assert set(by_rule) == {"config-field-unread", "config-override-path"}
        assert by_rule["config-field-unread"] == [
            "config field UnusedConfig.ghost is never read outside its own validation"
        ]
        assert len(by_rule["config-override-path"]) == 2
        assert any("train.momentum" in m for m in by_rule["config-override-path"])
        assert any("train.decay" in m for m in by_rule["config-override-path"])

    def test_findings_carry_location_and_hint(self, tmp_path):
        result = analyze([FIXTURES / "det_hash.py"], tmp_path)
        finding = result.findings[0]
        assert finding.path.endswith("det_hash.py")
        assert finding.line == 5
        assert finding.hint
        formatted = finding.format()
        assert f":{finding.line}: [det-hash]" in formatted
        assert "(fix:" in formatted


class TestNegatives:
    """The sanctioned spellings must pass without suppression."""

    def test_clean_idioms_produce_no_findings(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text(
            "import os\n"
            "import threading\n"
            "import numpy as np\n"
            "\n"
            "_LOCK = threading.Lock()\n"
            "_FLAG = False\n"
            "\n"
            "\n"
            "def walk(root, seed):\n"
            "    names = sorted(os.listdir(root))\n"
            "    count = len(os.listdir(root))\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return names, count, rng.random()\n"
            "\n"
            "\n"
            "def set_flag():\n"
            "    global _FLAG\n"
            "    with _LOCK:\n"
            "        _FLAG = True\n"
            "\n"
            "\n"
            "class Scratch:\n"
            "    def __init__(self):\n"
            "        self._scratch = threading.local()\n"
            "        self.lock = threading.Lock()\n"
            "        self.state = None\n"
            "\n"
            "    def warm(self, value):\n"
            "        self._scratch.buffer = value\n"
            "        with self.lock:\n"
            "            self.state = value\n"
            "\n"
            "\n"
            "def pick(values):\n"
            "    for value in sorted(set(values)):\n"
            "        yield value\n"
        )
        result = analyze([clean], tmp_path=tmp_path)
        assert result.findings == []
        assert result.n_suppressed == 0


class TestSuppressions:
    def bad_line(self):
        return "import time\n\n\ndef stamp():\n    return time.time()"

    def test_allow_comment_silences_and_counts(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(
            self.bad_line()
            + "  # repro: allow[det-wallclock] -- fixture timing seam\n"
        )
        result = analyze([src], tmp_path=tmp_path)
        assert result.findings == []
        assert result.n_suppressed == 1

    def test_reasonless_allow_is_malformed(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(self.bad_line() + "  # repro: allow[det-wallclock]\n")
        result = analyze([src], tmp_path=tmp_path)
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["det-wallclock", "malformed-suppression"]

    def test_unknown_directive_is_malformed(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("X = 1  # repro: ignore-all\n")
        result = analyze([src], tmp_path=tmp_path)
        assert [f.rule for f in result.findings] == ["malformed-suppression"]

    def test_unused_suppression_is_a_finding(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("X = 1  # repro: allow[det-hash] -- nothing here\n")
        result = analyze([src], tmp_path=tmp_path)
        assert [f.rule for f in result.findings] == ["unused-suppression"]
        assert "det-hash" in result.findings[0].message

    def test_meta_rules_cannot_be_suppressed(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("X = 1  # repro: allow[unused-suppression] -- nope\n")
        result = analyze([src], tmp_path=tmp_path)
        assert [f.rule for f in result.findings] == ["malformed-suppression"]

    def test_directive_inside_string_is_ignored(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text('DOC = "# repro: allow[det-hash] -- not a comment"\n')
        result = analyze([src], tmp_path=tmp_path)
        assert result.findings == []


RULE_IDS = [
    "concurrency-shared-state",
    "config-field-unread",
    "config-override-path",
    "det-hash",
    "det-listdir",
    "det-rng",
    "det-set-order",
    "det-wallclock",
    "state-schema",
]


def ci_lint_paths():
    """The paths the static-analysis stage of ``scripts/ci.sh`` lints."""
    command = "python -m tools.analysis "
    for line in (REPO_ROOT / "scripts" / "ci.sh").read_text().splitlines():
        if line.startswith(command):
            return shlex.split(line[len(command):])
    raise AssertionError("scripts/ci.sh does not run python -m tools.analysis")


class TestRegistryAndSelfAudit:
    def test_all_rule_families_are_registered(self):
        rules = dict(ANALYSIS_RULES.items())
        assert sorted(rules) == RULE_IDS
        for rule_cls in rules.values():
            assert rule_cls.describe()

    def test_real_tree_is_clean_without_baseline(self):
        """The standing CI gate: what ci.sh lints passes with no baseline."""
        paths = ci_lint_paths()
        assert paths == ["src/repro", "tools/analysis"]
        project = AnalysisProject.from_paths([str(REPO_ROOT / p) for p in paths])
        result = run_analysis(project)
        assert result.findings == [], "\n".join(
            finding.format() for finding in result.findings
        )
        # Every Python file under the linted paths was parsed and analysed.
        expected_files = sorted(
            file.relative_to(REPO_ROOT).as_posix()
            for p in paths
            for file in (REPO_ROOT / p).rglob("*.py")
        )
        assert sorted(module.rel for module in project.modules) == expected_files
        assert result.n_files == len(expected_files)
        assert result.rules == RULE_IDS
        # A missing config directory would silently switch the override
        # contract off: every example config must have been read.
        configs = sorted(
            file.relative_to(REPO_ROOT).as_posix()
            for file in (REPO_ROOT / "examples" / "configs").glob("*.json")
        )
        assert configs
        assert sorted(rel for rel, _ in project.config_files) == configs
        # The waived seams stay visible as suppression counts, not silence.
        assert result.n_suppressed > 0
