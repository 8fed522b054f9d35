"""Tests for repro.timedynamic.pipeline (the Fig. 2 / Table II protocol)."""

import pickle
from pathlib import Path

import pytest

from repro.api.config import ExperimentConfig
from repro.api.kinds import KINDS
from repro.api.runner import Runner
from repro.core.meta_regression import MetaRegressor
from repro.evaluation.regression import r2_score, residual_std
from repro.timedynamic.pipeline import TimeDynamicPipeline
from repro.timedynamic.time_series import build_time_series_dataset
from repro.utils.arrays import mean_std
from repro.utils.rng import as_rng

CONFIGS = Path(__file__).resolve().parent.parent / "examples" / "configs"


@pytest.fixture(scope="module")
def pipeline(mobilenet_network, xception_network, label_space):
    return TimeDynamicPipeline(
        test_network=mobilenet_network,
        reference_network=xception_network,
        label_space=label_space,
        model_params={
            "gradient_boosting": {"n_estimators": 15, "max_depth": 2, "max_features": "sqrt"},
            "neural_network": {"hidden_layer_sizes": (12,), "n_epochs": 30},
        },
    )


@pytest.fixture(scope="module")
def processed(pipeline, kitti_like):
    return pipeline.process_dataset(kitti_like)


@pytest.fixture(scope="module")
def protocol_result(pipeline, processed):
    return pipeline.run_protocol(
        processed,
        n_frames_list=(0, 2),
        compositions=("R", "RP"),
        methods=("gradient_boosting",),
        n_runs=2,
        random_state=0,
    )


class TestProcessDataset:
    def test_sequences_processed(self, processed, kitti_like):
        assert len(processed) == kitti_like.n_sequences
        for sequence in processed:
            assert sequence.n_frames == kitti_like.n_frames_per_sequence
            assert len(sequence.tracks) > 0
            assert len(sequence.datasets) == sequence.n_frames

    def test_pseudo_only_for_unlabeled(self, processed, kitti_like):
        labeled = set(kitti_like.labeled_frame_indices())
        for sequence in processed:
            for frame_index, pseudo in enumerate(sequence.pseudo_iou):
                assert (pseudo is None) == (frame_index in labeled)


class TestRunProtocol:
    def test_result_structure(self, protocol_result):
        assert set(protocol_result.classification) == {"R", "RP"}
        assert set(protocol_result.classification["R"]) == {"gradient_boosting"}
        assert set(protocol_result.classification["R"]["gradient_boosting"]) == {0, 2}
        assert protocol_result.n_real_segments > 0
        assert protocol_result.n_pseudo_segments > 0

    def test_metric_values_valid(self, protocol_result):
        for composition in protocol_result.classification.values():
            for method in composition.values():
                for metrics in method.values():
                    assert 0.0 <= metrics["accuracy"][0] <= 1.0
                    assert 0.0 <= metrics["auroc"][0] <= 1.0
        for composition in protocol_result.regression.values():
            for method in composition.values():
                for metrics in method.values():
                    assert metrics["sigma"][0] >= 0.0
                    assert metrics["r2"][0] <= 1.0

    def test_auroc_series_and_best(self, protocol_result):
        series = protocol_result.auroc_series("R", "gradient_boosting")
        assert list(series) == [0, 2]
        best = protocol_result.best_classification("R", "gradient_boosting")
        assert best["n_frames"] in (0, 2)
        assert best["auroc"][0] >= max(v[0] for v in series.values()) - 1e-12
        best_reg = protocol_result.best_regression("R", "gradient_boosting")
        assert best_reg["n_frames"] in (0, 2)

    def test_invalid_arguments(self, pipeline, processed):
        with pytest.raises(ValueError):
            pipeline.run_protocol(processed, compositions=("Z",), n_runs=1)
        with pytest.raises(ValueError):
            pipeline.run_protocol(processed, methods=("svm",), n_runs=1)

    def test_single_frame_linear_reference(self, pipeline, processed):
        reference = pipeline.single_frame_linear_reference(processed, n_runs=2, random_state=1)
        assert set(reference) == {"accuracy", "auroc", "sigma", "r2"}
        assert 0.0 <= reference["auroc"][0] <= 1.0

    def test_single_frame_linear_reference_fits_at_the_regression_penalty(
        self, pipeline, processed
    ):
        """The base features hold V_mean + pmax_mean = 1, so the linear
        reference fits at the pipeline's ridge penalty (Table II's 1e-3),
        not at α = 0: its σ and R² are those of an explicit fit at
        ``pipeline.regression_penalty`` over the same split seeds."""
        assert pipeline.regression_penalty == 1e-3
        reference = pipeline.single_frame_linear_reference(processed, n_runs=3, random_state=5)
        dataset = build_time_series_dataset(
            processed, n_previous=0, target="real", base_features=pipeline.base_features
        )
        rng = as_rng(5)
        runs = {"sigma": [], "r2": []}
        for _ in range(3):
            run_seed = int(rng.integers(0, 2**31 - 1))
            train, _val, test = dataset.split((0.7, 0.1, 0.2), random_state=run_seed)
            regressor = MetaRegressor(
                method="linear", penalty=pipeline.regression_penalty, random_state=run_seed
            ).fit(train)
            predictions = regressor.predict(test)
            runs["sigma"].append(residual_std(test.target_iou(), predictions))
            runs["r2"].append(r2_score(test.target_iou(), predictions))
        for key, values in runs.items():
            assert reference[key] == mean_std(values)


class TestStage1Payload:
    def test_paper_shard_pickles_under_one_megabyte(self):
        """The stage-1 shard of the Table II / Fig. 2 config crosses the
        process pool and goes into the store pickled: it holds the frames'
        metrics datasets and the tracks, not their segmentations."""
        config = ExperimentConfig.from_json((CONFIGS / "paper_table2_fig2.json").read_text())
        resolved = Runner().resolve(config)
        sequences = KINDS["timedynamic"].shard(resolved, 0, resolved.dataset.n_sequences, None)
        assert len(sequences) == resolved.dataset.n_sequences
        size = len(pickle.dumps(sequences, protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= 1_000_000, f"pickled shard is {size / 1e6:.2f} MB"
        for sequence in sequences:
            assert set(vars(sequence)) == {
                "sequence_id", "datasets", "track_assignments", "tracks",
                "pseudo_iou", "real_iou_available",
            }
