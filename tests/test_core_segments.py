"""Tests for repro.core.segments."""

import numpy as np

from repro.core.segments import (
    extract_segments,
    false_negative_segments,
    segment_ious,
    segment_precision_recall,
)


def false_positive_segments(prediction, ground_truth, ignore_id=-1):
    """Ids of the false positives: predicted segments with IoU 0."""
    return np.flatnonzero(segment_ious(prediction, ground_truth, ignore_id=ignore_id) == 0.0) + 1


def _ids_of_class(segmentation, class_id):
    """Segment ids of one class, read from the table."""
    return (np.flatnonzero(segmentation.class_ids == class_id) + 1).tolist()


def _simple_pair():
    """A small handcrafted GT / prediction pair with known IoU values."""
    gt = np.zeros((6, 8), dtype=int)
    gt[1:4, 1:4] = 1          # a 3x3 object of class 1
    pred = np.zeros((6, 8), dtype=int)
    pred[1:4, 2:5] = 1        # shifted by one column: 6 of 9+3 pixels overlap
    pred[5, 6:8] = 2          # hallucinated class-2 segment (false positive)
    return gt, pred


class TestExtractSegments:
    def test_counts_and_classes(self):
        gt, pred = _simple_pair()
        seg = extract_segments(pred)
        assert sorted(seg.class_ids.tolist()) == [0, 1, 2]
        assert seg.n_segments == 3
        assert seg.segment_ids().tolist() == [1, 2, 3]

    def test_sizes_sum_to_pixels(self):
        gt, _ = _simple_pair()
        seg = extract_segments(gt)
        assert int(seg.sizes.sum()) == gt.size

    def test_mask_and_class_lookup(self):
        gt, _ = _simple_pair()
        seg = extract_segments(gt)
        lookup = seg.class_lookup()
        for sid in seg.segment_ids().tolist():
            mask = seg.components == sid
            assert mask.sum() == seg.sizes[sid - 1]
            assert np.unique(gt[mask]).tolist() == [seg.class_ids[sid - 1]] == [lookup[sid]]
            rows, cols = np.nonzero(mask)
            top, left, bottom, right = seg.boxes[sid - 1].tolist()
            assert (top, left, bottom, right) == (
                rows.min(), cols.min(), rows.max() + 1, cols.max() + 1
            )
            assert seg.coordinate_sums[sid - 1].tolist() == [rows.sum(), cols.sum()]
        assert lookup[0] not in seg.class_ids

    def test_table_dtypes_and_shapes(self):
        gt, _ = _simple_pair()
        seg = extract_segments(gt)
        n = seg.n_segments
        for column, shape, dtype in (
            (seg.class_ids, (n,), np.int64),
            (seg.sizes, (n,), np.int64),
            (seg.boxes, (n, 4), np.int64),
            (seg.coordinate_sums, (n, 2), np.float64),
            (seg.centroids, (n, 2), np.float64),
        ):
            assert column.shape == shape
            assert column.dtype == dtype

    def test_segments_of_class(self):
        gt, _ = _simple_pair()
        seg = extract_segments(gt)
        ids = _ids_of_class(seg, 1)
        assert len(ids) == 1
        assert seg.sizes[ids[0] - 1] == 9

    def test_ignore_pixels_excluded(self):
        gt, _ = _simple_pair()
        gt_with_ignore = gt.copy()
        gt_with_ignore[0, :] = -1
        seg = extract_segments(gt_with_ignore)
        assert np.all(seg.components[0, :] == 0)

    def test_centroid_inside_bounding_box(self, image_metrics):
        prediction = image_metrics.prediction
        boxes, centroids = prediction.boxes, prediction.centroids
        assert np.all((boxes[:, 0] <= centroids[:, 0]) & (centroids[:, 0] <= boxes[:, 2]))
        assert np.all((boxes[:, 1] <= centroids[:, 1]) & (centroids[:, 1] <= boxes[:, 3]))


class TestSegmentIoU:
    def test_known_overlap(self):
        gt, pred = _simple_pair()
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt)
        class1_id = _ids_of_class(prediction, 1)[0]
        value = segment_ious(prediction, ground_truth)[class1_id - 1]
        # Intersection 6 pixels, union 12 pixels.
        assert abs(value - 0.5) < 1e-12

    def test_false_positive_has_zero_iou(self):
        gt, pred = _simple_pair()
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt)
        class2_id = _ids_of_class(prediction, 2)[0]
        assert segment_ious(prediction, ground_truth)[class2_id - 1] == 0.0

    def test_perfect_prediction_all_ones(self):
        gt, _ = _simple_pair()
        prediction = extract_segments(gt)
        ground_truth = extract_segments(gt)
        ious = segment_ious(prediction, ground_truth)
        assert np.all(np.abs(ious - 1.0) < 1e-12)

    def test_all_predicted_segments_have_iou(self, image_metrics):
        ious = segment_ious(image_metrics.prediction, image_metrics.ground_truth)
        assert ious.shape == (image_metrics.prediction.n_segments,)
        assert ious.dtype == np.float64
        assert np.all((0.0 <= ious) & (ious <= 1.0))

    def test_ignore_pixels_excluded_from_union(self):
        gt = np.zeros((4, 4), dtype=int)
        gt[0:2, 0:2] = 1
        gt[0, 0] = -1  # one GT pixel unlabeled
        pred = np.zeros((4, 4), dtype=int)
        pred[0:2, 0:2] = 1
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt)
        class1_id = _ids_of_class(prediction, 1)[0]
        value = segment_ious(prediction, ground_truth)[class1_id - 1]
        assert abs(value - 1.0) < 1e-12

    def test_multiple_gt_components_union(self):
        # One predicted segment spanning two GT components of the same class.
        gt = np.zeros((3, 7), dtype=int)
        gt[1, 1:3] = 1
        gt[1, 4:6] = 1
        pred = np.zeros((3, 7), dtype=int)
        pred[1, 1:6] = 1
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt)
        class1_id = _ids_of_class(prediction, 1)[0]
        value = segment_ious(prediction, ground_truth)[class1_id - 1]
        # Intersection 4, union 5.
        assert abs(value - 0.8) < 1e-12


class TestFalsePositivesNegatives:
    def test_detects_hallucination_as_fp(self):
        gt, pred = _simple_pair()
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt)
        fps = false_positive_segments(prediction, ground_truth)
        fp_classes = set(prediction.class_ids[fps - 1].tolist())
        assert 2 in fp_classes

    def test_detects_missed_object_as_fn(self):
        gt, _ = _simple_pair()
        pred_missing = np.zeros_like(gt)  # object of class 1 completely missed
        prediction = extract_segments(pred_missing)
        ground_truth = extract_segments(gt)
        fns = false_negative_segments(prediction, ground_truth)
        fn_classes = set(ground_truth.class_ids[fns - 1].tolist())
        assert 1 in fn_classes

    def test_perfect_prediction_no_errors(self):
        gt, _ = _simple_pair()
        prediction = extract_segments(gt)
        ground_truth = extract_segments(gt)
        assert false_positive_segments(prediction, ground_truth).tolist() == []
        assert false_negative_segments(prediction, ground_truth).tolist() == []


class TestSegmentPrecisionRecall:
    def test_perfect_prediction(self):
        gt, _ = _simple_pair()
        segmentation = extract_segments(gt)
        precision, recall = segment_precision_recall(segmentation, segmentation, class_ids=[1])
        assert all(v == 1.0 for v in precision.values())
        assert all(v == 1.0 for v in recall.values())

    def test_partial_overlap_values(self):
        gt, pred = _simple_pair()
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt)
        precision, recall = segment_precision_recall(prediction, ground_truth, class_ids=[1])
        # Predicted class-1 segment: 9 pixels, 6 on GT class 1.
        assert abs(list(precision.values())[0] - 6 / 9) < 1e-12
        # GT class-1 segment: 9 pixels, 6 recovered.
        assert abs(list(recall.values())[0] - 6 / 9) < 1e-12

    def test_restricted_to_requested_classes(self):
        gt, pred = _simple_pair()
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt)
        precision, recall = segment_precision_recall(prediction, ground_truth, class_ids=[2])
        assert precision
        assert all(prediction.class_ids[sid - 1] == 2 for sid in precision)
        assert recall == {}  # no GT segment of class 2
