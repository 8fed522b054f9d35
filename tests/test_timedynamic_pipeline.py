"""Tests for repro.timedynamic.pipeline (the Fig. 2 / Table II protocol)."""

import pytest

from repro.timedynamic.pipeline import TimeDynamicPipeline


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
            assert sequence.tracker.n_tracks > 0

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
