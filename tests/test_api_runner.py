"""Tests for repro.api.runner and the ``python -m repro`` CLI.

Covers the unified Runner on all three experiment kinds, the single-seed
determinism contract (bitwise-identical ``to_json`` for equal configs), and
bitwise parity between the Runner path and the equivalent direct pipeline
calls.
"""

import json

import pytest

from repro.__main__ import main
from repro.api.config import (
    EXPERIMENT_KINDS,
    ConfigError,
    DataConfig,
    EvalConfig,
    ExperimentConfig,
    ExecutionConfig,
    MetaModelConfig,
)
from repro.api.kinds import KINDS
from repro.api.runner import ExperimentReport, Runner, derived_seeds
from repro.core.pipeline import MetaSegPipeline
from repro.decision.pipeline import DecisionRuleComparison
from repro.obs import Tracer
from repro.segmentation.datasets import CityscapesLikeDataset, KittiLikeDataset
from repro.segmentation.network import (
    SimulatedSegmentationNetwork,
    mobilenetv2_profile,
    xception65_profile,
)
from repro.segmentation.scene import SceneConfig
from repro.segmentation.sequence import SequenceConfig
from repro.timedynamic.pipeline import TimeDynamicPipeline
from repro.utils.arrays import mean_std

TINY_HEIGHT = 48
TINY_WIDTH = 96


def metaseg_config(seed: int = 9, execution=None) -> ExperimentConfig:
    return ExperimentConfig(
        kind="metaseg",
        name="tiny",
        seed=seed,
        data=DataConfig(dataset="cityscapes_like", n_val=4,
                        height=TINY_HEIGHT, width=TINY_WIDTH),
        execution=execution or ExecutionConfig(),
        evaluation=EvalConfig(n_runs=2),
    )


def timedynamic_config(seed: int = 9) -> ExperimentConfig:
    return ExperimentConfig(
        kind="timedynamic",
        seed=seed,
        data=DataConfig(dataset="kitti_like", n_sequences=2, n_frames=6,
                        labeled_stride=2, height=TINY_HEIGHT, width=TINY_WIDTH),
        meta_models=MetaModelConfig(
            classifiers=["gradient_boosting"],
            regressors=["gradient_boosting"],
            classification_penalty=1e-3,
            regression_penalty=1e-3,
            model_params={"gradient_boosting": {"n_estimators": 8, "max_depth": 2,
                                                "max_features": "sqrt"}},
        ),
        evaluation=EvalConfig(n_runs=1, n_frames_list=[0, 1], compositions=["R"]),
    )


def decision_config(seed: int = 9) -> ExperimentConfig:
    return ExperimentConfig(
        kind="decision",
        seed=seed,
        data=DataConfig(dataset="cityscapes_like", n_train=4, n_val=3,
                        height=TINY_HEIGHT, width=TINY_WIDTH),
        evaluation=EvalConfig(rules=["bayes", "ml"]),
    )


@pytest.fixture(scope="module")
def metaseg_report():
    return Runner().run(metaseg_config())


@pytest.fixture(scope="module")
def timedynamic_report():
    return Runner().run(timedynamic_config())


@pytest.fixture(scope="module")
def decision_report():
    return Runner().run(decision_config())


class TestRunnerMetaseg:
    def test_report_shape(self, metaseg_report):
        assert metaseg_report.kind == "metaseg"
        assert metaseg_report.seed == 9
        assert set(metaseg_report.tables) == {"classification", "regression"}
        assert metaseg_report.provenance["n_segments"] > 0
        assert {"resolve", "extract", "evaluate", "total"} <= set(metaseg_report.timings)

    def test_expected_variants_present(self, metaseg_report):
        variants = {row["variant"] for row in metaseg_report.table("classification")}
        assert variants == {"logistic_penalized", "logistic_unpenalized",
                            "entropy_only", "naive"}
        regression_variants = {row["variant"] for row in metaseg_report.table("regression")}
        assert regression_variants == {"linear_all_metrics", "entropy_only"}

    def test_config_echoed(self, metaseg_report):
        assert metaseg_report.config == metaseg_config().to_dict()

    def test_unknown_table_rejected(self, metaseg_report):
        with pytest.raises(KeyError, match="no table 'rules'"):
            metaseg_report.table("rules")

    def test_bitwise_parity_with_direct_pipeline(self, metaseg_report):
        """The acceptance criterion: Runner == direct MetaSegPipeline, bitwise."""
        config = metaseg_config()
        seeds = derived_seeds(config.seed)
        dataset = CityscapesLikeDataset(
            n_train=0, n_val=4,
            scene_config=SceneConfig(height=TINY_HEIGHT, width=TINY_WIDTH),
            random_state=seeds.data,
        )
        network = SimulatedSegmentationNetwork(
            mobilenetv2_profile(), random_state=seeds.network
        )
        pipeline = MetaSegPipeline(network)
        metrics = pipeline.extract_dataset(dataset.val_samples())
        result = pipeline.run_table1_protocol(
            metrics, n_runs=2, random_state=seeds.protocol
        )
        for row in metaseg_report.table("classification"):
            if row["variant"] == "naive":
                assert row["mean"] == result.naive_accuracy
                continue
            mean, std = result.classification[row["variant"]][row["metric"]]
            assert row["mean"] == mean and row["std"] == std
        for row in metaseg_report.table("regression"):
            mean, std = result.regression[row["variant"]][row["metric"]]
            assert row["mean"] == mean and row["std"] == std

    def test_parallel_extraction_bit_identical(self, metaseg_report):
        # Only the config echo may differ; tables and provenance are bitwise
        # equal because the process shards fold in order.
        parallel = Runner().run(
            metaseg_config(execution=ExecutionConfig(backend="process", workers=4))
        )
        assert parallel.tables == metaseg_report.tables
        assert parallel.provenance == metaseg_report.provenance

    def test_score_walks_the_split_by_index_uncached(self, monkeypatch):
        config = metaseg_config()
        runner = Runner()
        model = runner.fit(config)
        resolved = runner.resolve(config)
        extractor = model.build_extractor()
        expected = []
        for index in range(resolved.dataset.n_val):
            sample = resolved.dataset.val_sample(index)
            probs = resolved.network.predict_probabilities(sample.labels, index=index)
            expected.append(
                model.score_frame(probs, extractor=extractor, image_id=sample.image_id)
            )

        def materialise(self):
            raise AssertionError("Runner.score must not hold the whole split")

        monkeypatch.setattr(CityscapesLikeDataset, "val_samples", materialise)
        scored = runner.score(config, model)
        assert scored["n_frames"] == len(expected)
        assert json.dumps(scored["frames"]) == json.dumps(expected)

    @pytest.mark.parametrize("make_config", [timedynamic_config, decision_config])
    def test_fit_and_score_reject_non_metaseg_kinds(self, make_config):
        # Serving models score single frames: a video or decision config is
        # a config error on both entry points, never a crash on (or a silent
        # walk of) the wrong substrate.
        config = make_config()
        runner = Runner()
        message = "requires kind 'metaseg', got " + repr(config.kind)
        with pytest.raises(ValueError, match=message):
            runner.fit(config)
        model = runner.fit(metaseg_config())
        with pytest.raises(ValueError, match=message):
            runner.score(config, model=model)

    def test_feature_group_restriction_runs(self):
        config = metaseg_config()
        config.meta_models.feature_group = "dispersion"
        report = Runner().run(config)
        assert report.provenance["n_segments"] > 0

    def test_model_params_reach_the_models(self):
        config = metaseg_config()
        config.meta_models.classifiers = ["gradient_boosting"]
        config.meta_models.regressors = ["gradient_boosting"]
        config.meta_models.model_params = {
            "gradient_boosting": {"n_estimators": 3, "max_depth": 1}
        }
        small = Runner().run(config)
        config.meta_models.model_params = {}
        defaults = Runner().run(config)
        # Shrinking the ensemble must change the fitted models' numbers.
        assert small.tables != defaults.tables


class TestCustomRegistrations:
    """A config's ``model_params`` entry reaches the protocol's fits."""

    def test_timedynamic_custom_method_gets_only_its_own_params(self, monkeypatch):
        """Table II builds every method as MetaClassifier/MetaRegressor(method,
        penalty, random_state, **model_params[method]): the entry reaches both
        fits of its method, and no other family's defaults leak in."""
        from repro.core.meta_model import MetaModel

        tiny = {"n_estimators": 4, "max_depth": 2}
        built = []
        build_model = MetaModel._build_model

        def spy(self):
            built.append((type(self).__name__, self.method, dict(self.model_params)))
            return build_model(self)

        monkeypatch.setattr(MetaModel, "_build_model", spy)
        config = timedynamic_config()
        config.meta_models.classifiers = ["gradient_boosting"]
        config.meta_models.model_params = {"gradient_boosting": tiny}
        report = Runner().run(config)
        assert {row["method"] for row in report.table("regression")} == {"gradient_boosting"}
        assert {task for task, _, _ in built} == {"MetaClassifier", "MetaRegressor"}
        for _, method, params in built:
            assert method == "gradient_boosting"
            assert params == tiny


class TestModelParamsChecks:
    """A bad ``model_params`` entry of a built-in family fails at resolve,
    before stage 1 opens its span."""

    @staticmethod
    def _assert_rejected_before_stage1(config, *fragments):
        tracer = Tracer()
        with pytest.raises(ConfigError) as excinfo:
            Runner(tracer=tracer).run(config)
        for fragment in fragments:
            assert fragment in str(excinfo.value)
        names = {record["name"] for record in tracer.records()}
        assert "resolve" in names
        assert not names & {"extract", "process", "evaluate"}

    def test_unknown_parameter(self):
        config = metaseg_config()
        config.meta_models.model_params = {"logistic": {"max_iterr": 5}}
        self._assert_rejected_before_stage1(config, "'logistic'", "'max_iterr'", "max_iter")

    @pytest.mark.parametrize("key", ["method", "penalty", "feature_subset", "random_state"])
    def test_protocol_parameter(self, key):
        config = metaseg_config()
        config.meta_models.model_params = {"logistic": {key: 5.0}}
        self._assert_rejected_before_stage1(config, "'logistic'", repr(key))

    def test_timedynamic_checks_both_tasks(self):
        config = timedynamic_config()
        config.meta_models.model_params = {"gradient_boosting": {"clip_predictions": False}}
        self._assert_rejected_before_stage1(
            config, "MetaClassifier", "'gradient_boosting'", "'clip_predictions'"
        )

    def test_entry_must_be_a_dict(self):
        config = metaseg_config()
        config.meta_models.model_params = {"linear": [1]}
        self._assert_rejected_before_stage1(config, "'linear'", "must be a dict")

    def test_task_parameters_and_model_keywords_pass(self):
        config = metaseg_config()
        config.meta_models.model_params = {
            "logistic": {"max_iter": 50}, "linear": {"clip_predictions": False},
        }
        Runner().resolve(config)


class TestRunnerTimedynamic:
    def test_report_shape(self, timedynamic_report):
        assert timedynamic_report.kind == "timedynamic"
        assert set(timedynamic_report.tables) == {"classification", "regression"}
        assert timedynamic_report.provenance["n_real_segments"] > 0
        assert timedynamic_report.provenance["reference_network"] == "xception65"

    def test_bitwise_parity_with_direct_pipeline(self, timedynamic_report):
        """Runner == direct TimeDynamicPipeline, bitwise."""
        config = timedynamic_config()
        seeds = derived_seeds(config.seed)
        dataset = KittiLikeDataset(
            n_sequences=2,
            sequence_config=SequenceConfig(
                n_frames=6, scene_config=SceneConfig(height=TINY_HEIGHT, width=TINY_WIDTH)
            ),
            labeled_stride=2,
            random_state=seeds.data,
        )
        pipeline = TimeDynamicPipeline(
            test_network=SimulatedSegmentationNetwork(
                mobilenetv2_profile(), random_state=seeds.network
            ),
            reference_network=SimulatedSegmentationNetwork(
                xception65_profile(), random_state=seeds.reference_network
            ),
            classification_penalty=1e-3,
            regression_penalty=1e-3,
            model_params=config.meta_models.model_params,
        )
        result = pipeline.run_protocol(
            pipeline.process_dataset(dataset),
            n_frames_list=[0, 1],
            compositions=["R"],
            methods=["gradient_boosting"],
            n_runs=1,
            random_state=seeds.protocol,
        )
        assert timedynamic_report.provenance["n_real_segments"] == result.n_real_segments
        assert timedynamic_report.provenance["n_pseudo_segments"] == result.n_pseudo_segments
        for table, nested in (("classification", result.classification),
                              ("regression", result.regression)):
            rows = timedynamic_report.table(table)
            assert rows
            for row in rows:
                by_frames = nested[row["composition"]][row["method"]]
                mean, std = by_frames[row["n_frames"]][row["metric"]]
                assert row["mean"] == mean and row["std"] == std

    def test_rows_cover_all_cells(self, timedynamic_report):
        rows = timedynamic_report.table("classification")
        cells = {(row["composition"], row["method"], row["n_frames"], row["metric"])
                 for row in rows}
        assert cells == {
            ("R", "gradient_boosting", n, metric)
            for n in (0, 1) for metric in ("accuracy", "auroc")
        }


class TestRunnerDecision:
    def test_report_shape(self, decision_report):
        assert decision_report.kind == "decision"
        assert set(decision_report.tables) == {"rules"}
        rules = {row["rule"] for row in decision_report.table("rules")}
        assert rules == {"bayes", "ml"}

    def test_ml_rule_reduces_non_detections(self, decision_report):
        non_detection = {
            row["rule"]: row["mean"]
            for row in decision_report.table("rules")
            if row["metric"] == "non_detection_rate"
        }
        assert non_detection["ml"] <= non_detection["bayes"]

    def test_bitwise_parity_with_direct_comparison(self, decision_report):
        config = decision_config()
        seeds = derived_seeds(config.seed)
        dataset = CityscapesLikeDataset(
            n_train=4, n_val=3,
            scene_config=SceneConfig(height=TINY_HEIGHT, width=TINY_WIDTH),
            random_state=seeds.data,
        )
        network = SimulatedSegmentationNetwork(
            mobilenetv2_profile(), random_state=seeds.network
        )
        comparison = DecisionRuleComparison(network, category="human")
        comparison.fit_priors(dataset.train_samples())
        result = comparison.compare(dataset.val_samples(), rules=("bayes", "ml"))
        pixel_accuracy = {
            row["rule"]: row["mean"]
            for row in decision_report.table("rules")
            if row["metric"] == "pixel_accuracy"
        }
        assert pixel_accuracy == result.pixel_accuracy

    def test_strengths_match_direct_comparison_bitwise(self):
        config = ExperimentConfig(
            kind="decision",
            seed=4,
            data=DataConfig(dataset="cityscapes_like_small", n_train=3, n_val=2),
            evaluation=EvalConfig(rules=["bayes", "interpolated", "ml"],
                                  strengths={"interpolated": 0.5}),
        )
        report = Runner().run(config)
        resolved = Runner().resolve(config)
        dataset = resolved.dataset
        comparison = DecisionRuleComparison(resolved.network, category="human")
        comparison.fit_priors(dataset.train_samples())
        result = comparison.compare(
            dataset.val_samples(), rules=("bayes", "interpolated", "ml"),
            strengths={"interpolated": 0.5},
        )
        expected = []
        for rule, stats in result.per_rule.items():
            for metric, (mean, std) in (
                ("precision", mean_std(stats.precision_values)),
                ("recall", mean_std(stats.recall_values)),
                ("non_detection_rate", (stats.non_detection_rate(), 0.0)),
                ("pixel_accuracy", (result.pixel_accuracy[rule], 0.0)),
            ):
                expected.append({"rule": rule, "metric": metric, "mean": mean, "std": std})
        assert report.table("rules") == expected
        # The strength reaches the rule: interpolated decodes differ from ml.
        assert result.pixel_accuracy["interpolated"] != result.pixel_accuracy["ml"]


class TestConfigCompatibility:
    def test_every_config_kind_has_one_table_entry(self):
        assert tuple(KINDS) == EXPERIMENT_KINDS

    def test_kind_dataset_mismatch_is_a_config_error(self):
        video_for_metaseg = metaseg_config()
        video_for_metaseg.data.dataset = "kitti_like_small"
        with pytest.raises(ValueError, match="does not fit experiment kind 'metaseg'"):
            Runner().resolve(video_for_metaseg)
        frames_for_video = timedynamic_config()
        frames_for_video.data.dataset = "cityscapes_like_small"
        with pytest.raises(ValueError, match="does not fit experiment kind 'timedynamic'"):
            Runner().resolve(frames_for_video)

    def test_kind_dataset_mismatch_via_cli(self, tmp_path, capsys):
        config = metaseg_config()
        config.data.dataset = "kitti_like_small"
        path = tmp_path / "mismatch.json"
        path.write_text(config.to_json())
        assert main(["run", str(path)]) == 2
        assert "does not fit experiment kind" in capsys.readouterr().err

    def test_timedynamic_shared_method_constraint_explained(self):
        config = timedynamic_config()
        config.meta_models.classifiers = ["logistic"]  # classifier-only family
        with pytest.raises(ValueError, match="both meta-classifier and meta-regressor"):
            Runner().resolve(config)


class TestDeterminism:
    def test_same_config_same_json_bitwise(self, metaseg_report):
        again = Runner().run(metaseg_config())
        assert again.to_json() == metaseg_report.to_json()

    def test_dict_configs_supported(self, metaseg_report):
        report = Runner().run(metaseg_config().to_dict())
        assert report.to_json() == metaseg_report.to_json()

    def test_different_seed_changes_results(self, metaseg_report):
        other = Runner().run(metaseg_config(seed=10))
        assert other.to_json() != metaseg_report.to_json()

    def test_timings_excluded_from_json_by_default(self, metaseg_report):
        payload = json.loads(metaseg_report.to_json())
        assert "timings" not in payload
        with_timings = json.loads(metaseg_report.to_json(include_timings=True))
        assert "timings" in with_timings

    def test_report_json_round_trip(self, metaseg_report):
        rebuilt = ExperimentReport.from_json(metaseg_report.to_json())
        assert rebuilt.to_json() == metaseg_report.to_json()
        assert rebuilt.tables == metaseg_report.tables

    def test_summary_rows_render(self, metaseg_report):
        rows = metaseg_report.summary_rows()
        assert rows[0].startswith("experiment: metaseg (tiny)")
        assert any("variant=logistic_penalized" in row for row in rows)


class TestCli:
    def _write_config(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        return path

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kind in ("networks", "datasets", "metric_groups", "meta_classifiers",
                     "meta_regressors", "decision_rules"):
            assert kind in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "execution_backends" not in payload
        assert all(len(names) >= 3 for names in payload.values())

    def test_describe_registry_and_entry(self, capsys):
        assert main(["describe", "networks"]) == 0
        assert "mobilenetv2" in capsys.readouterr().out
        assert main(["describe", "networks", "mobilenetv2"]) == 0
        assert "MobilenetV2" in capsys.readouterr().out

    def test_describe_data_entry_shows_contents(self, capsys):
        # Metric groups are tuples; their contents (not tuple.__doc__) print.
        assert main(["describe", "metric_groups", "geometry"]) == 0
        out = capsys.readouterr().out
        assert "'S_bd'" in out and "immutable sequence" not in out

    def test_describe_unknown(self, capsys):
        assert main(["describe", "nope"]) == 2
        assert "unknown registry" in capsys.readouterr().err
        assert main(["describe", "networks", "nope"]) == 2
        assert "unknown networks entry" in capsys.readouterr().err

    def test_run_writes_report(self, tmp_path, capsys, metaseg_report):
        path = self._write_config(tmp_path, metaseg_config())
        output = tmp_path / "report.json"
        assert main(["run", str(path), "--output", str(output)]) == 0
        assert "experiment: metaseg" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload == json.loads(metaseg_report.to_json())

    def test_run_seed_override(self, tmp_path, capsys, metaseg_report):
        path = self._write_config(tmp_path, metaseg_config())
        output = tmp_path / "report.json"
        assert main(["run", str(path), "--seed", "10", "--output", str(output)]) == 0
        assert json.loads(output.read_text())["seed"] == 10

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_run_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "metaseg", "typo": True}))
        assert main(["run", str(path)]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_run_unknown_registry_name(self, tmp_path, capsys):
        config = metaseg_config()
        config.network.profile = "resnet101"
        path = self._write_config(tmp_path, config)
        assert main(["run", str(path)]) == 2
        assert "unknown networks entry" in capsys.readouterr().err

    def test_example_configs_parse_and_validate(self):
        from pathlib import Path

        from repro.sweep import SweepConfig

        config_dir = Path(__file__).resolve().parent.parent / "examples" / "configs"
        paths = sorted(config_dir.glob("*.json"))
        assert len(paths) >= 3
        kinds = set()
        for path in paths:
            if path.name.startswith("sweep_"):
                # Sweep configs validate their base + every grid point.
                sweep = SweepConfig.from_file(path)
                for point in sweep.points():
                    Runner().resolve(point.config)
                continue
            config = ExperimentConfig.from_json(path.read_text())
            config.validate()
            Runner().resolve(config)
            kinds.add(config.kind)
        assert kinds == {"metaseg", "timedynamic", "decision"}

    def test_metaseg_small_config_matches_direct_pipeline(self, tmp_path, capsys):
        """Acceptance criterion: the checked-in CLI config reproduces the
        equivalent direct MetaSegPipeline numbers bitwise."""
        from pathlib import Path

        config_path = (Path(__file__).resolve().parent.parent
                       / "examples" / "configs" / "metaseg_small.json")
        output = tmp_path / "report.json"
        assert main(["run", str(config_path), "--output", str(output)]) == 0
        capsys.readouterr()
        report = ExperimentReport.from_json(output.read_text())

        config = ExperimentConfig.from_json(config_path.read_text())
        seeds = derived_seeds(config.seed)
        dataset = CityscapesLikeDataset(
            n_train=0, n_val=config.data.n_val,
            scene_config=SceneConfig(height=64, width=128),  # "_small" preset
            random_state=seeds.data,
        )
        network = SimulatedSegmentationNetwork(
            mobilenetv2_profile(), random_state=seeds.network
        )
        pipeline = MetaSegPipeline(network)
        metrics = pipeline.extract_dataset(dataset.val_samples())
        result = pipeline.run_table1_protocol(
            metrics,
            n_runs=config.evaluation.n_runs,
            train_fraction=config.evaluation.train_fraction,
            random_state=seeds.protocol,
        )
        for row in report.table("classification"):
            if row["variant"] == "naive":
                assert row["mean"] == result.naive_accuracy
                continue
            mean, std = result.classification[row["variant"]][row["metric"]]
            assert (row["mean"], row["std"]) == (mean, std)
        for row in report.table("regression"):
            mean, std = result.regression[row["variant"]][row["metric"]]
            assert (row["mean"], row["std"]) == (mean, std)
