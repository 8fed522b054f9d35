"""Tests for repro.core.metrics and repro.core.dataset."""

import tracemalloc

import numpy as np
import pytest

from reference.heatmaps import _reference_dispersion_heatmaps
from reference.metrics import _reference_compute_features
from repro.core.dataset import MetricsDataset
from repro.core.heatmaps import dispersion_heatmaps, fused_dispersion_heatmaps
from repro.core.metrics import METRIC_GROUPS, SegmentMetricsExtractor
from repro.core.segments import extract_segments
from repro.evaluation.regression import pearson_correlation
from repro.segmentation.labels import LabelSpace, LabelSpec
from repro.utils.arrays import TILE_PIXELS


def _random_softmax_field(seed: int, n_classes: int, height=None, width=None):
    """Seeded random softmax field whose argmax forms chunky segments."""
    rng = np.random.default_rng(seed)
    height = int(rng.integers(10, 44)) if height is None else height
    width = int(rng.integers(10, 44)) if width is None else width
    cell = int(rng.integers(2, 7))
    grid = rng.integers(
        0, n_classes, size=(height // cell + 1, width // cell + 1)
    )
    bias = np.kron(grid, np.ones((cell, cell)))[:height, :width].astype(np.int64)
    logits = rng.normal(0.0, 1.0, size=(height, width, n_classes))
    logits[np.arange(height)[:, None], np.arange(width)[None, :], bias] += rng.uniform(1.0, 5.0)
    probs = np.exp(logits)
    probs /= probs.sum(axis=2, keepdims=True)
    return probs


class TestSegmentMetricsExtractor:
    def test_feature_names_consistent(self, extractor, image_metrics):
        names = extractor.feature_names()
        assert image_metrics.dataset.feature_names == names
        assert image_metrics.dataset.features.shape[1] == len(names)

    def test_one_row_per_predicted_segment(self, image_metrics):
        assert len(image_metrics.dataset) == image_metrics.prediction.n_segments

    def test_metric_groups_are_subsets_of_features(self, extractor):
        names = set(extractor.feature_names())
        for group, members in METRIC_GROUPS.items():
            assert set(members).issubset(names), group

    def test_segment_sizes_match_segmentation(self, image_metrics):
        dataset = image_metrics.dataset
        prediction = image_metrics.prediction
        np.testing.assert_array_equal(dataset.segment_ids, prediction.segment_ids())
        np.testing.assert_array_equal(dataset.feature("S"), prediction.sizes)
        np.testing.assert_array_equal(dataset.class_ids, prediction.class_ids)

    def test_size_decomposition(self, image_metrics):
        dataset = image_metrics.dataset
        np.testing.assert_allclose(
            dataset.feature("S"), dataset.feature("S_in") + dataset.feature("S_bd")
        )

    def test_dispersion_means_in_unit_interval(self, image_metrics):
        dataset = image_metrics.dataset
        for name in ("E_mean", "M_mean", "V_mean", "E_bd_mean", "pmax_mean"):
            values = dataset.feature(name)
            assert values.min() >= -1e-9
            assert values.max() <= 1.0 + 1e-9

    def test_class_probabilities_sum_to_one(self, image_metrics, label_space):
        dataset = image_metrics.dataset
        cprob_names = [f"cprob_{spec.name.replace(' ', '_')}" for spec in label_space]
        total = sum(dataset.feature(name) for name in cprob_names)
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_predicted_class_feature_matches_class_ids(self, image_metrics):
        dataset = image_metrics.dataset
        np.testing.assert_array_equal(
            dataset.feature("predicted_class").astype(int), dataset.class_ids
        )

    def test_centroids_normalised(self, image_metrics):
        dataset = image_metrics.dataset
        assert dataset.feature("centroid_row").max() <= 1.0
        assert dataset.feature("centroid_col").max() <= 1.0

    def test_iou_targets_available_with_gt(self, image_metrics):
        assert image_metrics.dataset.has_targets
        iou = image_metrics.dataset.target_iou()
        assert np.all((iou >= 0) & (iou <= 1))

    def test_extraction_without_gt_has_no_targets(self, extractor, probability_field):
        dataset = extractor.extract(probability_field, gt_labels=None, image_id="nogt")
        assert not dataset.has_targets
        with pytest.raises(ValueError):
            dataset.target_iou()

    def test_entropy_correlates_negatively_with_iou(self, metrics_dataset):
        correlation = pearson_correlation(
            metrics_dataset.feature("E_mean"), metrics_dataset.target_iou()
        )
        assert correlation < -0.3

    def test_class_count_mismatch_raises(self, extractor):
        bad = np.full((8, 8, 5), 0.2)
        with pytest.raises(ValueError):
            extractor.extract(bad)

    def test_shape_mismatch_raises(self, extractor, probability_field):
        with pytest.raises(ValueError):
            extractor.extract(probability_field, gt_labels=np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("shape", [(0, 8, 19), (8, 0, 19)])
    def test_empty_field_rejected_by_name(self, extractor, shape):
        with pytest.raises(ValueError, match="^probs must be non-empty$"):
            extractor.extract_full(np.zeros(shape))

    def test_invalid_connectivity(self, label_space):
        with pytest.raises(ValueError):
            SegmentMetricsExtractor(label_space=label_space, connectivity=5)


class TestFusedExtractionParity:
    """The fused single-pass extraction is bitwise-identical to the seed path."""

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(25))
    def test_fused_features_bitwise_equal_seed(self, extractor, label_space, seed):
        probs = _random_softmax_field(seed, label_space.n_classes)
        prediction = extract_segments(np.argmax(probs, axis=2).astype(np.int64))
        fused = extractor._compute_features(fused_dispersion_heatmaps(probs), prediction)
        reference = _reference_compute_features(extractor, probs, prediction)
        assert fused.shape == reference.shape
        mismatch = np.nonzero(fused != reference)
        assert np.array_equal(fused, reference), (
            f"seed={seed}: {mismatch[0].size} mismatching entries, first at "
            f"row {mismatch[0][:1]}, column {mismatch[1][:1]}"
        )

    def test_fused_parity_on_network_field(self, extractor, probability_field):
        """Parity also holds on the simulated network's softmax output."""
        prediction = extract_segments(
            np.argmax(probability_field, axis=2).astype(np.int64)
        )
        probs = np.asarray(probability_field, dtype=np.float64)
        assert np.array_equal(
            extractor._compute_features(fused_dispersion_heatmaps(probs), prediction),
            _reference_compute_features(extractor, probs, prediction),
        )

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(24))
    def test_folded_sums_bitwise_equal_seed(self, seed):
        """The membership-product sums match the seed's bincounts bitwise.

        Covers C in {2, 19, 40}, one-row and one-column frames (segments
        without interior pixels), widths past the sweep's tile budget and
        exact 0/1 probabilities (zero dispersion over whole segments).
        """
        n_classes = (2, 19, 40)[seed % 3]
        height, width = ((1, 60), (60, 1), (2, 9000), (None, None))[seed % 4]
        space = LabelSpace(tuple(
            LabelSpec(index, f"class{index}", "object", (0, 0, 0), index % 2 == 1, 0.01)
            for index in range(n_classes)
        ))
        extractor = SegmentMetricsExtractor(label_space=space)
        probs = _random_softmax_field(seed, n_classes, height, width)
        if seed % 5 == 0:
            winners = np.argmax(probs, axis=2)
            one_hot = np.arange(n_classes) == winners[..., None]
            rows = np.random.default_rng(seed).random(probs.shape[:2]) < 0.5
            probs[rows] = one_hot[rows]
        prediction = extract_segments(np.argmax(probs, axis=2).astype(np.int64))
        fused = extractor._compute_features(fused_dispersion_heatmaps(probs), prediction)
        reference = _reference_compute_features(extractor, probs, prediction)
        assert np.array_equal(fused, reference), f"seed={seed}"
        dataset = extractor.extract(probs)
        assert np.array_equal(dataset.features, reference)

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(10))
    def test_fused_heatmaps_bitwise_equal_seed(self, seed):
        probs = _random_softmax_field(1000 + seed, 7)
        fused = dispersion_heatmaps(probs)
        reference = _reference_dispersion_heatmaps(probs)
        assert set(fused) == set(reference)
        for key in reference:
            assert np.array_equal(fused[key], reference[key]), f"seed={seed} map={key}"


def _extraction_field(n_classes: int, boost: float):
    """The extraction benchmark's 256x512 recipe: 16-pixel class cells whose
    logit is raised by *boost*, plus ground truth on the same cells.  A
    boost of 4.0 gives a few thousand predicted segments; 2.0 lets the noise
    win often enough for ~52,000."""
    rng = np.random.default_rng(0)
    height, width, cell = 256, 512, 16
    grid = rng.integers(0, n_classes, size=(height // cell + 1, width // cell + 1))
    bias = np.kron(grid, np.ones((cell, cell)))[:height, :width].astype(np.int64)
    probs = rng.normal(0.0, 1.0, size=(height, width, n_classes))
    probs[np.arange(height)[:, None], np.arange(width)[None, :], bias] += boost
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=2, keepdims=True)
    gt_grid = rng.integers(0, n_classes, size=grid.shape)
    gt_labels = np.kron(gt_grid, np.ones((cell, cell)))[:height, :width].astype(np.int64)
    return probs, gt_labels


def _traced_peak(fn):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestExtractionMemory:
    def test_transient_peak_below_field_bytes(self, label_space):
        """A fresh extractor scores a 256x512x19 field within 0.6x its bytes.

        The softmax sweep allocates tile-sized work space only; what stays
        is the per-pixel maps, segment decompositions, one int32-indexed
        membership matrix and the feature matrix.  The features are
        computed, and the sweep's maps freed, before the ground truth is
        labelled, so its labelling and IoU do not stack on the feature
        peak (measured: 0.55x).  The field is
        the extraction benchmark's recipe (chunky 16-pixel cells, a few
        thousand segments).
        """
        probs, gt_labels = _extraction_field(label_space.n_classes, boost=4.0)
        extractor = SegmentMetricsExtractor(label_space=label_space)
        result, peak = _traced_peak(lambda: extractor.extract_full(probs, gt_labels=gt_labels))
        assert result.dataset.iou is not None
        assert peak <= 0.6 * probs.nbytes, f"peak {peak / probs.nbytes:.2f}x the field's bytes"

    def test_transient_peak_without_ground_truth(self, label_space):
        """The serving path (no ground truth) stays within 0.6x the field's
        bytes too (measured: 0.55x)."""
        probs, _gt_labels = _extraction_field(label_space.n_classes, boost=4.0)
        extractor = SegmentMetricsExtractor(label_space=label_space)
        result, peak = _traced_peak(lambda: extractor.extract_full(probs))
        assert result.dataset.iou is None
        assert peak <= 0.6 * probs.nbytes, f"peak {peak / probs.nbytes:.2f}x the field's bytes"

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sweep_work_space_is_tile_sized(self, label_space, order):
        """The softmax sweep allocates its outputs (40 B per pixel) plus
        tile-sized work space, never an (H, W, C) or (H, W) temporary:
        what it allocates beyond the outputs stays within two class-major
        tiles (measured: ~1.6 tiles, the tile buffer plus eight summation
        lanes and three running planes), from either memory order."""
        probs, _gt_labels = _extraction_field(label_space.n_classes, boost=4.0)
        field = np.asarray(probs, order=order)
        sweep, peak = _traced_peak(lambda: fused_dispersion_heatmaps(field))
        work = peak - sweep.labels.nbytes - sweep.values.nbytes
        tile_bytes = TILE_PIXELS * label_space.n_classes * 8
        assert sweep.labels.nbytes + sweep.values.nbytes == 40 * sweep.labels.size
        assert work <= 2 * tile_bytes, f"work space {work / tile_bytes:.2f} tiles"

    @pytest.fixture(scope="class")
    def noisy(self, label_space):
        """The same field with a weaker class bias: ~52,000 predicted segments."""
        probs, _gt_labels = _extraction_field(label_space.n_classes, boost=2.0)
        sweep = fused_dispersion_heatmaps(probs)
        return sweep, extract_segments(sweep.labels)

    def test_segment_table_peak_on_noisy_field(self, noisy):
        """The segment table costs arrays per segment, not objects: the
        decomposition of ~52,000 segments stays within 0.8x the field."""
        sweep, expected = noisy
        assert expected.n_segments > 50_000
        segmentation, peak = _traced_peak(lambda: extract_segments(sweep.labels))
        assert segmentation.n_segments == expected.n_segments
        assert peak <= 0.8 * sweep.field.nbytes, (
            f"peak {peak / sweep.field.nbytes:.2f}x the field's bytes"
        )

    def test_feature_matrix_peak_on_noisy_field(self, noisy, label_space):
        """Features are written into one preallocated (n, n_features)
        matrix: no column list and no stacked copy of it."""
        sweep, prediction = noisy
        extractor = SegmentMetricsExtractor(label_space=label_space)
        features, peak = _traced_peak(lambda: extractor._compute_features(sweep, prediction))
        assert features.shape == (prediction.n_segments, len(extractor.feature_names()))
        assert peak <= 2.2 * sweep.field.nbytes, (
            f"peak {peak / sweep.field.nbytes:.2f}x the field's bytes"
        )


class TestMetricsDataset:
    def test_basic_invariants(self, metrics_dataset):
        assert len(metrics_dataset) == metrics_dataset.features.shape[0]
        assert metrics_dataset.n_features == len(metrics_dataset.feature_names)

    def test_target_iou0_binary(self, metrics_dataset):
        targets = metrics_dataset.target_iou0()
        assert set(np.unique(targets)).issubset({0, 1})
        assert abs(
            metrics_dataset.false_positive_fraction() - float(np.mean(targets == 0))
        ) < 1e-12

    def test_feature_lookup(self, metrics_dataset):
        column = metrics_dataset.feature("S")
        np.testing.assert_array_equal(
            column, metrics_dataset.feature_matrix(["S"]).ravel()
        )

    def test_unknown_feature_raises(self, metrics_dataset):
        with pytest.raises(KeyError):
            metrics_dataset.feature("does_not_exist")

    def test_subset(self, metrics_dataset):
        subset = metrics_dataset.subset(np.arange(5))
        assert len(subset) == 5
        np.testing.assert_array_equal(subset.features, metrics_dataset.features[:5])

    def test_split_partitions_rows(self, metrics_dataset):
        train, test = metrics_dataset.split((0.8, 0.2), random_state=0)
        assert len(train) + len(test) == len(metrics_dataset)
        assert abs(len(train) - round(0.8 * len(metrics_dataset))) <= 1

    def test_split_deterministic(self, metrics_dataset):
        a_train, _ = metrics_dataset.split((0.8, 0.2), random_state=3)
        b_train, _ = metrics_dataset.split((0.8, 0.2), random_state=3)
        np.testing.assert_array_equal(a_train.features, b_train.features)

    def test_concatenate_roundtrip(self, metrics_dataset):
        image_ids = np.asarray(metrics_dataset.image_ids)
        parts = [
            metrics_dataset.subset(np.flatnonzero(image_ids == image_id))
            for image_id in dict.fromkeys(metrics_dataset.image_ids)
        ]
        assert len(parts) == 8
        rebuilt = MetricsDataset.concatenate(parts)
        assert len(rebuilt) == len(metrics_dataset)
        np.testing.assert_allclose(np.sort(rebuilt.feature("S")),
                                   np.sort(metrics_dataset.feature("S")))

    def test_concatenate_mismatched_features_raises(self, metrics_dataset):
        other = MetricsDataset(
            features=np.zeros((2, 2)),
            feature_names=["a", "b"],
            segment_ids=np.arange(2),
            class_ids=np.zeros(2, dtype=int),
            image_ids=np.array(["x", "x"], dtype=object),
            iou=np.zeros(2),
        )
        with pytest.raises(ValueError):
            MetricsDataset.concatenate([metrics_dataset, other])

    def test_concatenate_empty_raises(self):
        with pytest.raises(ValueError):
            MetricsDataset.concatenate([])

    def test_invalid_iou_range_rejected(self, metrics_dataset):
        with pytest.raises(ValueError):
            MetricsDataset(
                features=metrics_dataset.features,
                feature_names=list(metrics_dataset.feature_names),
                segment_ids=metrics_dataset.segment_ids,
                class_ids=metrics_dataset.class_ids,
                image_ids=metrics_dataset.image_ids,
                iou=np.full(len(metrics_dataset), 2.0),
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MetricsDataset(
                features=np.zeros((3, 2)),
                feature_names=["a", "b"],
                segment_ids=np.arange(2),
                class_ids=np.zeros(3, dtype=int),
                image_ids=np.array(["x"] * 3, dtype=object),
            )

    def test_wrong_feature_name_count_rejected(self):
        with pytest.raises(ValueError):
            MetricsDataset(
                features=np.zeros((3, 2)),
                feature_names=["a"],
                segment_ids=np.arange(3),
                class_ids=np.zeros(3, dtype=int),
                image_ids=np.array(["x"] * 3, dtype=object),
            )

    def test_non_matrix_features_rejected(self):
        with pytest.raises(ValueError, match="features must be a 2-D matrix"):
            MetricsDataset(
                features=np.zeros(3),
                feature_names=["a"],
                segment_ids=np.arange(3),
                class_ids=np.zeros(3, dtype=int),
                image_ids=np.array(["x"] * 3, dtype=object),
            )

    def test_iou_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="iou must have length 3, got 2"):
            MetricsDataset(
                features=np.zeros((3, 1)),
                feature_names=["a"],
                segment_ids=np.arange(3),
                class_ids=np.zeros(3, dtype=int),
                image_ids=np.array(["x"] * 3, dtype=object),
                iou=np.array([0.5, 0.5]),
            )

    def test_concatenate_with_and_without_targets_raises(self, metrics_dataset):
        unlabelled = MetricsDataset(
            features=metrics_dataset.features,
            feature_names=list(metrics_dataset.feature_names),
            segment_ids=metrics_dataset.segment_ids,
            class_ids=metrics_dataset.class_ids,
            image_ids=metrics_dataset.image_ids,
        )
        with pytest.raises(ValueError, match="with and without IoU targets"):
            MetricsDataset.concatenate([metrics_dataset, unlabelled])

