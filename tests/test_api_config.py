"""Tests for repro.api.config: declarative experiment configurations."""

import dataclasses
import json

import pytest

from repro.api.config import (
    EXPERIMENT_KINDS,
    ConfigError,
    DataConfig,
    EvalConfig,
    ExecutionConfig,
    ExperimentConfig,
    ExtractionConfig,
    MetaModelConfig,
    NetworkConfig,
)


class TestDefaults:
    def test_default_config_is_valid_metaseg(self):
        config = ExperimentConfig()
        assert config.kind == "metaseg"
        assert config.seed == 0
        assert config.validate() is config

    def test_all_kinds_validate(self):
        for kind in EXPERIMENT_KINDS:
            ExperimentConfig(kind=kind).validate()

    def test_sections_have_independent_defaults(self):
        first = ExperimentConfig()
        second = ExperimentConfig()
        first.meta_models.classifiers.append("neural_network")
        assert second.meta_models.classifiers == ["logistic"]


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            ExperimentConfig(kind="segmentation").validate()

    def test_non_integer_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ExperimentConfig(seed="zero").validate()

    @pytest.mark.parametrize("seed", [True, False])
    def test_boolean_seed_rejected(self, seed):
        # JSON true would otherwise run as seed 1 under a different cache key.
        with pytest.raises(ConfigError, match="seed must be an integer"):
            ExperimentConfig.from_dict({"seed": seed})

    @pytest.mark.parametrize(
        "section, kwargs, message",
        [
            ("data", {"n_val": -1}, "split sizes"),
            ("data", {"height": 8}, "at least 32x64"),
            ("data", {"labeled_stride": 0}, "labeled_stride"),
            ("network", {"profile": ""}, "profile name"),
            # Removed keys: rejected whatever their value.
            ("extraction", {"chunk_size": 8}, "chunk_size"),
            ("extraction", {"chunk_size": None}, "chunk_size"),
            ("extraction", {"max_workers": 2}, "max_workers"),
            ("extraction", {"connectivity": 6}, "connectivity"),
            ("execution", {"backend": ""}, "backend"),
            ("execution", {"workers": -2}, "workers"),
            ("execution", {"streaming": True}, "streaming"),
            # Removed queue knobs: rejected whatever their value, old
            # defaults included.
            ("execution", {"lease_timeout": 30.0}, "lease_timeout"),
            ("execution", {"lease_timeout": 0.5}, "lease_timeout"),
            ("execution", {"max_retries": 3}, "max_retries"),
            ("execution", {"max_retries": 0}, "max_retries"),
            ("execution", {"backoff": 0.05}, "backoff"),
            ("execution", {"backoff": 0.0}, "backoff"),
            ("meta_models", {"classifiers": []}, "at least one classifier"),
            ("meta_models", {"classification_penalty": -1.0}, "penalties"),
            ("evaluation", {"n_runs": 0}, "n_runs"),
            ("evaluation", {"train_fraction": 1.0}, "train_fraction"),
            ("evaluation", {"split_fractions": [0.5, 0.5]}, "split_fractions"),
            ("evaluation", {"n_frames_list": []}, "n_frames_list"),
            ("evaluation", {"rules": []}, "rules"),
            ("evaluation", {"category": ""}, "category"),
            ("data", {"root": 7}, "root must be a path string, got 7"),
            ("data", {"n_sequences": 0}, "n_sequences and n_frames"),
            ("data", {"n_frames": 0}, "n_sequences and n_frames"),
            ("network", {"overrides": ["logit_noise"]}, "overrides must be a dict"),
            ("network", {"dump_root": 3}, "dump_root must be a path string, got 3"),
            ("network", {"mmap": "yes"}, "mmap must be a boolean, got 'yes'"),
            ("meta_models", {"model_params": []}, "model_params must be a dict"),
            ("evaluation", {"compositions": []}, "compositions must be non-empty"),
            ("evaluation", {"augmentation_factor": -1.0}, "augmentation_factor"),
        ],
    )
    def test_section_validation(self, section, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({section: kwargs}, validate=False).validate()

    def test_serial_worker_counts_are_valid(self):
        """The unified contract: None/0/1 all mean serial and all validate."""
        for workers in (None, 0, 1):
            ExperimentConfig(execution=ExecutionConfig(workers=workers)).validate()


class TestParseTimeValidation:
    """Invalid values fail at from_dict/from_json time with a ConfigError."""

    @pytest.mark.parametrize(
        "section, payload, fragment",
        [
            ("extraction", {"chunk_size": 8}, "extraction: chunk_size"),
            ("extraction", {"chunk_size": 1}, "extraction: chunk_size"),
            ("extraction", {"max_workers": 4}, "extraction: max_workers"),
            ("extraction", {"chunk_size": None}, "extraction: chunk_size"),
            ("execution", {"workers": -1}, "execution: workers"),
            ("execution", {"workers": True}, "execution: workers"),
            ("execution", {"backend": ""}, "execution: backend"),
            ("execution", {"streaming": False}, "execution: streaming"),
            ("execution", {"backend": "distributed"}, "execution: backend"),
            ("execution", {"backend": "thread"}, "execution: backend"),
            # serial runs one shard: more workers are an error naming process.
            ("execution", {"workers": 2}, "workers=2 needs execution.backend 'process'"),
            ("execution", {"backend": "serial", "workers": 8},
             "workers=8 needs execution.backend 'process'"),
        ],
    )
    def test_bad_execution_numbers_fail_at_parse_time(self, section, payload, fragment):
        with pytest.raises(ConfigError, match=fragment):
            ExperimentConfig.from_dict({section: payload})

    @pytest.mark.parametrize(
        "section, key, replacement",
        [
            ("extraction", "chunk_size", "items fold one at a time"),
            ("extraction", "max_workers", "execution.workers under execution.backend 'process'"),
            ("execution", "streaming", "every walk streams uncached"),
            ("execution", "lease_timeout", "process backend recovers lost workers"),
            ("execution", "max_retries", "process backend recovers lost workers"),
            ("execution", "backoff", "process backend recovers lost workers"),
        ],
    )
    def test_removed_keys_name_their_replacement(self, section, key, replacement):
        for validate in (True, False):
            with pytest.raises(ConfigError) as error:
                ExperimentConfig.from_dict({section: {key: None}}, validate=validate)
            message = str(error.value)
            assert f"{section}: {key} was removed" in message
            assert replacement in message

    @pytest.mark.parametrize(
        "meta_models",
        [
            {"regression_penalty": 0},
            {"regression_penalty": 0.0, "regressors": ["gradient_boosting", "linear"]},
            {"regression_penalty": 0, "feature_group": "geometry"},
        ],
    )
    def test_unpenalised_linear_regression_fails_at_parse_time(self, meta_models):
        """The Table I features carry exact identities, so the unpenalised
        linear fit's normal equations are singular."""
        with pytest.raises(ConfigError) as error:
            ExperimentConfig.from_dict({"kind": "metaseg", "meta_models": meta_models})
        message = str(error.value)
        assert message.startswith("meta_models: regression_penalty 0 ")
        for identity in ("sum of cprob = 1", "S = S_in + S_bd", "V_mean = 1 - pmax_mean"):
            assert identity in message

    @pytest.mark.parametrize(
        "payload",
        [
            {"meta_models": {"regressors": ["gradient_boosting"], "regression_penalty": 0}},
            {"meta_models": {"regressors": ["neural_network"], "regression_penalty": 0}},
            {"meta_models": {"classification_penalty": 0}},
            # The time-dynamic kind ignores ``regressors``; decision fits nothing.
            {"kind": "timedynamic", "meta_models": {"regression_penalty": 0}},
            {"kind": "decision", "meta_models": {"regression_penalty": 0}},
        ],
    )
    def test_zero_penalty_stays_valid_elsewhere(self, payload):
        ExperimentConfig.from_dict(payload)

    def test_unpenalised_linear_regression_exits_2_from_run(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"meta_models": {"regression_penalty": 0}}))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert "regression_penalty 0" in lines[0] and "S = S_in + S_bd" in lines[0]
        assert captured.out == ""

    def test_config_error_is_a_value_error(self):
        # Callers that catch ValueError (the CLI, older tests) keep working.
        assert issubclass(ConfigError, ValueError)

    def test_from_json_validates_too(self):
        with pytest.raises(ConfigError, match="execution: workers"):
            ExperimentConfig.from_json(
                json.dumps({"execution": {"workers": -3}})
            )

    def test_valid_execution_section_round_trips(self):
        config = ExperimentConfig.from_dict(
            {"execution": {"backend": "process", "workers": 4}}
        )
        assert config.execution.backend == "process"
        rebuilt = ExperimentConfig.from_json(config.to_json())
        assert rebuilt == config

    def test_queue_backend_and_knobs_are_removed(self):
        """The work-queue backend and its three lease knobs fail loudly,
        naming ``process``, which recovers lost workers on its own; so does
        the removed ``thread`` backend."""
        for backend in ("distributed", "thread"):
            payload = {"execution": {"backend": backend, "workers": 2}}
            deferred = ExperimentConfig.from_dict(payload, validate=False)
            for parse in (lambda: ExperimentConfig.from_dict(payload), deferred.validate):
                with pytest.raises(ConfigError) as error:
                    parse()
                assert f"backend '{backend}' was removed" in str(error.value)
                assert "'process'" in str(error.value)
        assert {field.name for field in dataclasses.fields(ExecutionConfig)} == {
            "backend", "workers",
        }
        for key, value in (("lease_timeout", 30.0), ("max_retries", 3), ("backoff", 0.05)):
            with pytest.raises(ConfigError, match=f"execution: {key} was removed"):
                ExperimentConfig.from_dict({"execution": {key: value}})


class TestSerialisation:
    def _sample_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            kind="timedynamic",
            name="roundtrip",
            seed=17,
            data=DataConfig(dataset="kitti_like", n_sequences=3, n_frames=5),
            network=NetworkConfig(profile="mobilenetv2", overrides={"miss_rate": 0.1}),
            extraction=ExtractionConfig(connectivity=4),
            meta_models=MetaModelConfig(
                classifiers=["gradient_boosting"],
                regressors=["gradient_boosting"],
                model_params={"gradient_boosting": {"n_estimators": 10}},
            ),
            evaluation=EvalConfig(n_runs=2, n_frames_list=[0, 1], compositions=["R"]),
        )

    def test_dict_round_trip(self):
        config = self._sample_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = self._sample_config()
        rebuilt = ExperimentConfig.from_json(config.to_json())
        assert rebuilt == config
        # JSON text itself is stable under a second round trip.
        assert rebuilt.to_json() == config.to_json()

    def test_to_dict_is_json_serialisable(self):
        json.dumps(self._sample_config().to_dict())

    def test_partial_dict_uses_defaults(self):
        config = ExperimentConfig.from_dict({"kind": "decision", "seed": 2})
        assert config.evaluation.rules == ["bayes", "ml"]
        assert config.data.dataset == "cityscapes_like"

    def test_sections_accept_dataclass_instances(self):
        config = ExperimentConfig.from_dict({"data": DataConfig(n_val=5)})
        assert config.data.n_val == 5

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: networks"):
            ExperimentConfig.from_dict({"networks": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys in config section 'data': n_vall"):
            ExperimentConfig.from_dict({"data": {"n_vall": 3}})

    def test_non_dict_payloads_rejected(self):
        with pytest.raises(ValueError, match="must be a dict"):
            ExperimentConfig.from_dict(["kind"])
        with pytest.raises(ValueError, match="section 'data' must be a dict"):
            ExperimentConfig.from_dict({"data": 3})
