"""Tests for repro.timedynamic.time_series (incl. pseudo IoU targets), smote and compositions."""

import numpy as np
import pytest

from repro.core.metrics import SegmentMetricsExtractor
from repro.core.segments import extract_segments, segment_ious
from repro.segmentation.datasets import global_frame_index
from repro.timedynamic.compositions import COMPOSITIONS, assemble_composition
from repro.timedynamic.smote import smote_regression, target_relevance
from repro.timedynamic.time_series import (
    DEFAULT_BASE_FEATURES,
    TimeSeriesBuilder,
    build_time_series_dataset,
    time_series_feature_names,
)


@pytest.fixture(scope="module")
def processed_sequence(kitti_like, mobilenet_network, xception_network):
    """One processed sequence with real + pseudo targets and tracking."""
    builder = TimeSeriesBuilder()
    samples = kitti_like.samples(0)
    probability_fields = []
    real_gt = []
    pseudo_gt = []
    for sample in samples:
        frame_id = global_frame_index(0, sample.frame_index, kitti_like.n_frames_per_sequence)
        probability_fields.append(
            mobilenet_network.predict_probabilities(sample.labels, index=frame_id)
        )
        real_gt.append(sample.labels if sample.has_ground_truth else None)
        pseudo_gt.append(
            None if sample.has_ground_truth
            else xception_network.predict_labels(sample.labels, index=frame_id)
        )
    return builder.process_sequence(probability_fields, real_gt, pseudo_gt, sequence_id=0)


class TestTimeSeriesBuilder:
    def test_frames_processed(self, processed_sequence, kitti_like):
        assert processed_sequence.n_frames == kitti_like.n_frames_per_sequence
        assert len(processed_sequence.track_assignments) == processed_sequence.n_frames

    def test_real_gt_flags(self, processed_sequence, kitti_like):
        labeled = set(kitti_like.labeled_frame_indices())
        for frame_index, available in enumerate(processed_sequence.real_iou_available):
            assert available == (frame_index in labeled)

    def test_pseudo_iou_only_for_unlabeled(self, processed_sequence):
        for available, pseudo in zip(
            processed_sequence.real_iou_available, processed_sequence.pseudo_iou
        ):
            if available:
                assert pseudo is None
            else:
                assert pseudo is not None
                assert np.all((pseudo >= 0) & (pseudo <= 1))
        for dataset, pseudo in zip(processed_sequence.datasets, processed_sequence.pseudo_iou):
            if pseudo is not None:
                assert pseudo.shape == (len(dataset),)

    def test_misaligned_inputs_raise(self):
        builder = TimeSeriesBuilder()
        with pytest.raises(ValueError):
            builder.process_sequence([], [])
        probs = np.full((4, 4, 19), 1 / 19)
        with pytest.raises(ValueError):
            builder.process_sequence([probs], [None, None])


class TestBuildTimeSeriesDataset:
    def test_feature_names_and_count(self):
        names = time_series_feature_names(["a", "b"], 2)
        assert names == ["a_t0", "b_t0", "a_t-1", "b_t-1", "a_t-2", "b_t-2", "observed_history"]

    def test_single_frame_dataset(self, processed_sequence):
        dataset = build_time_series_dataset([processed_sequence], n_previous=0, target="real")
        assert dataset.n_features == len(DEFAULT_BASE_FEATURES) + 1
        assert dataset.has_targets

    def test_history_extends_features(self, processed_sequence):
        short = build_time_series_dataset([processed_sequence], n_previous=0, target="real")
        long = build_time_series_dataset([processed_sequence], n_previous=3, target="real")
        assert len(short) == len(long)
        assert long.n_features == 4 * len(DEFAULT_BASE_FEATURES) + 1

    def test_observed_history_bounded(self, processed_sequence):
        dataset = build_time_series_dataset([processed_sequence], n_previous=4, target="real")
        observed = dataset.feature("observed_history")
        assert observed.min() >= 0
        assert observed.max() <= 4

    def test_pseudo_target_rows_only_for_unlabeled_frames(self, processed_sequence, kitti_like):
        dataset = build_time_series_dataset([processed_sequence], n_previous=0, target="pseudo")
        labeled = set(kitti_like.labeled_frame_indices())
        for image_id in np.unique(dataset.image_ids):
            frame_index = int(str(image_id).split("frame")[1])
            assert frame_index not in labeled

    def test_invalid_arguments(self, processed_sequence):
        with pytest.raises(ValueError):
            build_time_series_dataset([processed_sequence], n_previous=-1)
        with pytest.raises(ValueError):
            build_time_series_dataset([processed_sequence], n_previous=0, target="imaginary")


class TestSmote:
    def test_relevance_extremes_highest(self):
        targets = np.array([0.0, 0.5, 0.5, 0.5, 1.0])
        relevance = target_relevance(targets)
        assert relevance[0] == relevance[-1] == 1.0
        assert relevance[1] < 1.0

    def test_synthetic_count_and_shape(self, rng):
        features = rng.normal(size=(40, 5))
        targets = rng.uniform(size=40)
        synth_x, synth_y = smote_regression(features, targets, n_synthetic=25, random_state=0)
        assert synth_x.shape == (25, 5)
        assert synth_y.shape == (25,)

    def test_zero_synthetic(self, rng):
        synth_x, synth_y = smote_regression(rng.normal(size=(10, 2)), rng.uniform(size=10), 0)
        assert synth_x.shape == (0, 2) and synth_y.shape == (0,)

    def test_synthetic_values_within_convex_hull_per_feature(self, rng):
        features = rng.uniform(-1, 1, size=(50, 3))
        targets = rng.uniform(size=50)
        synth_x, synth_y = smote_regression(features, targets, n_synthetic=100, random_state=1)
        for column in range(3):
            assert synth_x[:, column].min() >= features[:, column].min() - 1e-9
            assert synth_x[:, column].max() <= features[:, column].max() + 1e-9
        assert synth_y.min() >= targets.min() - 1e-9
        assert synth_y.max() <= targets.max() + 1e-9

    def test_deterministic(self, rng):
        features = rng.normal(size=(30, 4))
        targets = rng.uniform(size=30)
        a = smote_regression(features, targets, 10, random_state=3)
        b = smote_regression(features, targets, 10, random_state=3)
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1])

    def test_invalid_arguments(self, rng):
        features = rng.normal(size=(10, 2))
        targets = rng.uniform(size=10)
        with pytest.raises(ValueError):
            smote_regression(features, targets, -1)
        with pytest.raises(ValueError):
            smote_regression(features, targets, 5, k_neighbors=0)
        with pytest.raises(ValueError):
            smote_regression(features, targets, 5, relevance_threshold=1.5)
        with pytest.raises(ValueError):
            smote_regression(features[:1], targets[:1], 5)


class TestPseudoLabels:
    def test_pseudo_labels_close_to_gt(self, xception_network, scene):
        # The reference network's argmax is the pseudo ground truth.
        pseudo = xception_network.predict_labels(scene.labels, index=0)
        annotated = scene.labels != -1
        assert np.mean(pseudo[annotated] == scene.labels[annotated]) > 0.7

    def test_pseudo_iou_aligned_with_segments(self, mobilenet_network, xception_network, scene):
        probs = mobilenet_network.predict_probabilities(scene.labels, index=0)
        pseudo = xception_network.predict_labels(scene.labels, index=0)
        sequence = TimeSeriesBuilder().process_sequence([probs], [None], [pseudo])
        (dataset,) = sequence.datasets
        (iou,) = sequence.pseudo_iou
        assert sequence.real_iou_available == [False]
        assert dataset.iou is None
        prediction = SegmentMetricsExtractor().extract_full(probs).prediction
        np.testing.assert_array_equal(dataset.segment_ids, prediction.segment_ids())
        expected = segment_ious(prediction, extract_segments(pseudo))
        assert iou.dtype == np.float64
        assert iou.shape == (prediction.n_segments,)
        assert iou.tobytes() == expected.tobytes()
        assert np.all((iou >= 0) & (iou <= 1))


class TestCompositions:
    @pytest.fixture(scope="class")
    def real_and_pseudo(self, processed_sequence):
        real = build_time_series_dataset([processed_sequence], n_previous=1, target="real")
        pseudo = build_time_series_dataset([processed_sequence], n_previous=1, target="pseudo")
        return real, pseudo

    def test_all_compositions_buildable(self, real_and_pseudo):
        real, pseudo = real_and_pseudo
        for name in COMPOSITIONS:
            training = assemble_composition(name, real, pseudo, random_state=0)
            assert len(training) > 0
            assert training.extra["composition"] == name

    def test_composition_sizes_match(self, real_and_pseudo):
        real, pseudo = real_and_pseudo
        n_real, n_pseudo = len(real), len(pseudo)
        sizes = {"R": n_real, "RA": 2 * n_real, "RAP": 2 * n_real + n_pseudo,
                 "RP": n_real + n_pseudo, "P": n_pseudo}
        for name in COMPOSITIONS:
            training = assemble_composition(
                name, real, pseudo, augmentation_factor=1.0, random_state=0
            )
            assert len(training) == sizes[name]

    def test_r_composition_is_pure_real(self, real_and_pseudo):
        real, pseudo = real_and_pseudo
        training = assemble_composition("R", real, pseudo, random_state=0)
        assert len(training) == len(real)

    def test_augmented_rows_flagged(self, real_and_pseudo):
        real, pseudo = real_and_pseudo
        training = assemble_composition("RA", real, pseudo, augmentation_factor=0.5, random_state=0)
        synthetic_rows = [iid for iid in training.image_ids if iid == "smote"]
        assert len(synthetic_rows) == int(round(0.5 * len(real)))

    def test_pseudo_required(self, real_and_pseudo):
        real, _ = real_and_pseudo
        with pytest.raises(ValueError):
            assemble_composition("RP", real, None)

    def test_unknown_composition(self, real_and_pseudo):
        real, pseudo = real_and_pseudo
        with pytest.raises(ValueError):
            assemble_composition("RAPX", real, pseudo)
