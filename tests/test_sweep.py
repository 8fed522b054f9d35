"""Tests for the declarative sweep driver (repro.sweep) and its CLI.

Covers dotted-path config overrides, the structural report diff, sweep
config parsing/expansion (deterministic point order, actionable errors),
the driver's cache behaviour (second sweep fully served from the store,
deterministic output payloads) and the ``python -m repro sweep`` command —
including the output-path contract (parent directories are created, I/O
failures are one-line diagnostics with exit code 2).
"""

import json

import pytest

from repro.__main__ import main
from repro.api.config import ConfigError, ExperimentConfig, apply_dotted_override
from repro.store import ResultStore
from repro.sweep import SweepConfig, run_sweep, structural_diff, summarize_diff

TINY_BASE = {
    "kind": "metaseg",
    "name": "sweep-tiny",
    "seed": 0,
    "data": {"dataset": "cityscapes_like", "n_val": 3, "height": 48, "width": 96},
    "evaluation": {"n_runs": 1},
}


def tiny_sweep(grid=None, **kwargs) -> SweepConfig:
    grid = {"seed": [0, 1]} if grid is None else grid
    return SweepConfig.from_dict({"name": "tiny", "base": TINY_BASE, "grid": grid},
                                 **kwargs)


# ------------------------------------------------------------ dotted overrides


class TestApplyDottedOverride:
    def test_sets_nested_and_top_level_fields(self):
        payload = ExperimentConfig().to_dict()
        apply_dotted_override(payload, "meta_models.classifiers", ["gradient_boosting"])
        apply_dotted_override(payload, "seed", 42)
        assert payload["meta_models"]["classifiers"] == ["gradient_boosting"]
        assert payload["seed"] == 42

    def test_unknown_paths_raise_config_error(self):
        payload = ExperimentConfig().to_dict()
        with pytest.raises(ConfigError, match="'meta_models.classifier'"):
            apply_dotted_override(payload, "meta_models.classifier", [])
        with pytest.raises(ConfigError, match="'metamodels'"):
            apply_dotted_override(payload, "metamodels.classifiers", [])
        with pytest.raises(ConfigError, match="non-empty"):
            apply_dotted_override(payload, "", 1)

    def test_cannot_descend_into_leaves(self):
        payload = ExperimentConfig().to_dict()
        with pytest.raises(ConfigError, match="seed.offset"):
            apply_dotted_override(payload, "seed.offset", 1)


# ------------------------------------------------------------- structural diff


class TestStructuralDiff:
    def test_equal_payloads_diff_empty(self):
        payload = {"a": [1, {"b": 2.5}], "c": None}
        assert structural_diff(payload, json.loads(json.dumps(payload))) == []

    def test_changed_added_removed_length(self):
        baseline = {"x": 1, "gone": True, "rows": [1, 2, 3], "nest": {"v": 0.25}}
        other = {"x": 2, "new": "k", "rows": [1, 9], "nest": {"v": 0.5}}
        entries = {e["path"]: e for e in structural_diff(baseline, other)}
        assert entries["x"]["change"] == "changed"
        assert entries["gone"]["change"] == "removed"
        assert entries["new"]["change"] == "added"
        assert entries["rows"]["change"] == "length"
        assert entries["rows[1]"] == {
            "path": "rows[1]", "change": "changed", "baseline": 2, "value": 9,
        }
        assert entries["nest.v"]["baseline"] == 0.25

    def test_type_changes_are_differences(self):
        assert structural_diff({"v": 1}, {"v": 1.0}) != []
        assert structural_diff({"v": 1}, {"v": True}) != []
        assert structural_diff({"v": [1]}, {"v": {"0": 1}}) != []

    def test_deterministic_order_and_summary(self):
        baseline = {"b": 1, "a": 1}
        other = {"a": 2, "b": 2}
        entries = structural_diff(baseline, other)
        assert [e["path"] for e in entries] == ["a", "b"]
        lines = summarize_diff(entries, limit=1)
        assert lines[0].startswith("a: ")
        assert "1 more difference" in lines[-1]


# ------------------------------------------------------------- sweep configs


class TestSweepConfig:
    def test_expansion_is_row_major_and_deterministic(self):
        sweep = tiny_sweep(grid={
            "seed": [0, 1],
            "evaluation.train_fraction": [0.7, 0.8],
        })
        assert sweep.n_points == 4
        points = list(sweep.points())
        combos = [
            (p.config.seed, p.config.evaluation.train_fraction) for p in points
        ]
        # Last grid field varies fastest (row-major), indices are stable.
        assert combos == [(0, 0.7), (0, 0.8), (1, 0.7), (1, 0.8)]
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert points[1].overrides == {"seed": 0, "evaluation.train_fraction": 0.8}
        assert "point-001" in points[1].label

    def test_empty_grid_is_single_base_point(self):
        sweep = tiny_sweep(grid={})
        points = list(sweep.points())
        assert sweep.n_points == 1 and len(points) == 1
        assert points[0].overrides == {}
        assert points[0].label.endswith("(base)")

    def test_rejects_unknown_keys_and_bad_grids(self):
        with pytest.raises(ConfigError, match="unknown sweep config keys"):
            SweepConfig.from_dict({"base": TINY_BASE, "grid": {}, "extra": 1})
        with pytest.raises(ConfigError, match="exactly one of"):
            SweepConfig.from_dict({"grid": {}})
        with pytest.raises(ConfigError, match="exactly one of"):
            SweepConfig.from_dict({"base": TINY_BASE, "base_path": "x.json", "grid": {}})
        with pytest.raises(ConfigError, match="non-empty list"):
            tiny_sweep(grid={"seed": []})
        with pytest.raises(ConfigError, match="'data.n_va'"):
            tiny_sweep(grid={"data.n_va": [1]})

    def test_invalid_point_value_names_the_point(self):
        sweep = tiny_sweep(grid={"evaluation.n_runs": [1, 0]})
        with pytest.raises(ConfigError, match="sweep point 1"):
            list(sweep.points())

    def test_driver_fails_fast_before_computing_any_point(self, tmp_path):
        """A bad later grid cell aborts the sweep before point 0 runs."""
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigError, match="sweep point 1"):
            run_sweep(tiny_sweep(grid={"evaluation.n_runs": [1, 0]}), store=store)
        assert store.stats()["n_entries"] == 0

    def test_base_path_resolves_relative_to_sweep_file(self, tmp_path):
        (tmp_path / "base.json").write_text(json.dumps(TINY_BASE))
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps({
            "name": "from-file", "base_path": "base.json", "grid": {"seed": [0, 1]},
        }))
        sweep = SweepConfig.from_file(sweep_path)
        assert sweep.name == "from-file"
        assert sweep.base["data"]["n_val"] == 3
        assert sweep.n_points == 2

    def test_missing_base_path_is_config_error(self, tmp_path):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps({"base_path": "nope.json", "grid": {}}))
        with pytest.raises(ConfigError, match="cannot read sweep base config"):
            SweepConfig.from_file(sweep_path)


# ------------------------------------------------------------- sweep driver


class TestRunSweep:
    def test_no_cache_runs_and_diffs(self):
        result = run_sweep(tiny_sweep(), no_cache=True)
        assert len(result.points) == 2
        assert result.store_root is None
        assert result.cache_hits == 0
        diffs = result.diffs()
        label = result.points[1].point.label
        assert diffs[label], "different seeds must produce different reports"
        assert any(e["path"] == "config.seed" for e in diffs[label])
        rows = result.summary_rows()
        assert rows[1] == "cache: disabled"
        assert rows[-1].startswith("cache hits: 0/2")

    def test_second_sweep_served_from_cache_bitwise(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_sweep(tiny_sweep(), store=store)
        warm = run_sweep(tiny_sweep(), store=store)
        assert cold.cache_hits == 0
        assert warm.cache_hits == 2
        assert cold.to_json() == warm.to_json()
        run_info = warm.to_dict(include_run_info=True)["run"]
        assert run_info["cache_hits"] == 2
        assert "run" not in warm.to_dict()

    def test_execution_overrides_do_not_change_the_numbers(self, tmp_path):
        baseline = run_sweep(tiny_sweep(), no_cache=True)
        threaded = run_sweep(
            tiny_sweep(), store=ResultStore(tmp_path), backend="thread", workers=2
        )
        # The execution override is echoed in each report's config (so the
        # full payloads differ), but tables and provenance are bit-equal.
        for base_point, thread_point in zip(baseline.points, threaded.points):
            assert base_point.report.tables == thread_point.report.tables
            assert base_point.report.provenance == thread_point.report.provenance
            config_echo = thread_point.report.config["execution"]
            assert config_echo["backend"] == "thread"
            assert config_echo["workers"] == 2


# --------------------------------------------------------------- CLI surface


@pytest.fixture()
def sweep_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "name": "cli-tiny", "base": TINY_BASE, "grid": {"seed": [0, 1]},
    }))
    return path


class TestSweepCli:
    def test_sweep_cold_then_warm(self, sweep_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", str(sweep_file), "--cache-dir", str(cache_dir)]) == 0
        assert "cache hits: 0/2" in capsys.readouterr().out
        assert main(["sweep", str(sweep_file), "--cache-dir", str(cache_dir)]) == 0
        assert "cache hits: 2/2" in capsys.readouterr().out

    def test_sweep_output_creates_parent_dirs(self, sweep_file, tmp_path, capsys):
        output = tmp_path / "deep" / "ly" / "nested" / "sweep.json"
        code = main([
            "sweep", str(sweep_file), "--no-cache", "--output", str(output),
        ])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["n_points"] == 2
        assert [p["report"]["seed"] for p in payload["points"]] == [0, 1]
        assert payload["diffs_vs_baseline"]

    def test_sweep_unwritable_output_is_exit_2(self, sweep_file, capsys):
        code = main([
            "sweep", str(sweep_file), "--no-cache", "--output", "/proc/nope/out.json",
        ])
        assert code == 2
        assert "error: cannot write sweep result" in capsys.readouterr().err

    def test_sweep_bad_configs_are_exit_2(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base": TINY_BASE, "grid": {"data.n_va": [1]}}))
        assert main(["sweep", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid sweep config" in err and "data.n_va" in err

    def test_run_output_creates_parent_dirs(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY_BASE))
        output = tmp_path / "not" / "yet" / "there" / "report.json"
        assert main(["run", str(config_path), "--output", str(output)]) == 0
        assert json.loads(output.read_text())["kind"] == "metaseg"

    def test_run_cache_flag_round_trip(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY_BASE))
        cache_dir = tmp_path / "cache"
        assert main(["run", str(config_path), "--cache-dir", str(cache_dir)]) == 0
        assert "cache: miss" in capsys.readouterr().out
        assert main(["run", str(config_path), "--cache-dir", str(cache_dir)]) == 0
        assert "cache: hit" in capsys.readouterr().out

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY_BASE))
        assert main(["run", str(config_path), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        # One report entry plus the per-split meta-model fits of the run.
        assert "report/metaseg" in out and "fit/metaseg" in out
        n_entries = len(ResultStore(cache_dir).entries())
        assert n_entries > 1 and f"entries: {n_entries}" in out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert f"evicted {n_entries} cache entries" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "entries: 0" in capsys.readouterr().out


# ----------------------------------------------------------- process sweeps


class TestProcessSweep:
    """Points run in order; each point's shards run on a process pool."""

    def test_process_sweep_matches_serial_bitwise(self, tmp_path):
        serial = run_sweep(tiny_sweep(), no_cache=True)
        process = run_sweep(
            tiny_sweep(), store=ResultStore(tmp_path),
            backend="process", workers=2,
        )
        assert len(process.points) == 2
        for serial_point, process_point in zip(serial.points, process.points):
            assert serial_point.report.tables == process_point.report.tables
            assert (
                serial_point.report.provenance == process_point.report.provenance
            )
            config_echo = process_point.report.config["execution"]
            assert config_echo["backend"] == "process"
            assert config_echo["workers"] == 2
        label = process.points[1].point.label
        assert any(e["path"] == "config.seed" for e in process.diffs()[label])

    def test_workers_publish_to_the_shared_store(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_sweep(tiny_sweep(), store=store, backend="process", workers=2)
        assert cold.cache_hits == 0
        # Each point's shards were computed in pool workers and published.
        assert all(point.shard_cache["misses"] == 2 for point in cold.points)
        assert store.stats()["n_entries"] > 0
        warm = run_sweep(tiny_sweep(), store=store, backend="process", workers=2)
        assert warm.cache_hits == 2
        for cold_point, warm_point in zip(cold.points, warm.points):
            assert cold_point.report.tables == warm_point.report.tables

    def test_process_without_cache(self):
        result = run_sweep(tiny_sweep(), no_cache=True, backend="process", workers=2)
        assert result.store_root is None
        assert len(result.points) == 2
        assert result.points[0].report.tables

    def test_removed_queue_backend_fails_before_any_point_runs(self, tmp_path):
        with pytest.raises(ConfigError, match="'distributed' was removed.*'process'"):
            run_sweep(tiny_sweep(), store=ResultStore(tmp_path), backend="distributed")
        assert ResultStore(tmp_path).stats()["n_entries"] == 0
