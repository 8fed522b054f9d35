"""Edge-case tests for segment matching and metric-extraction semantics.

Covers the documented corner behaviours: `_interior_mask` border semantics,
`segment_ious` under all-ignore ground truth (the union == 0 guard), and
`segment_precision_recall` when every pixel of a predicted segment is
unannotated (the segment is silently skipped).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.metrics import SegmentMetricsExtractor
from reference.segments import _reference_segment_ious, _reference_segment_precision_recall
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


class TestInteriorMaskBorderSemantics:
    def _interior(self, components):
        extractor = SegmentMetricsExtractor()
        return extractor._interior_mask(np.asarray(components, dtype=np.int64))

    def test_image_border_pixels_are_always_boundary(self):
        components = np.ones((5, 7), dtype=np.int64)
        interior = self._interior(components)
        assert not interior[0, :].any()
        assert not interior[-1, :].any()
        assert not interior[:, 0].any()
        assert not interior[:, -1].any()
        # Everything strictly inside a uniform component is interior.
        assert interior[1:-1, 1:-1].all()

    def test_interior_uses_4_neighbourhood(self):
        # A pixel whose only differing neighbour is diagonal stays interior:
        # the interior definition is 4-neighbour based even for connectivity-8
        # decompositions.
        components = np.ones((5, 5), dtype=np.int64)
        components[0, 0] = 2
        interior = self._interior(components)
        assert interior[1, 1]
        # A differing 4-neighbour makes the pixel boundary.
        components = np.ones((5, 5), dtype=np.int64)
        components[1, 2] = 2
        interior = self._interior(components)
        assert not interior[2, 2]
        assert not interior[1, 1]

    def test_single_row_image_is_all_boundary(self):
        components = np.ones((1, 6), dtype=np.int64)
        assert not self._interior(components).any()


class TestAllIgnoreGroundTruth:
    def _case(self):
        pred = np.zeros((6, 9), dtype=np.int64)
        pred[1:4, 1:5] = 1
        pred[4:6, 6:9] = 2
        gt = np.full((6, 9), -1, dtype=np.int64)
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt, ignore_id=-1)
        return prediction, ground_truth

    def test_all_ious_zero_without_error(self):
        prediction, ground_truth = self._case()
        ious = segment_ious(prediction, ground_truth)
        assert ious.shape == (prediction.n_segments,)
        assert np.all(ious == 0.0)
        reference = _reference_segment_ious(prediction, ground_truth)
        assert list(reference) == prediction.segment_ids().tolist()
        assert ious.tolist() == list(reference.values())

    def test_every_predicted_segment_is_false_positive(self):
        prediction, ground_truth = self._case()
        fps = false_positive_segments(prediction, ground_truth)
        np.testing.assert_array_equal(fps, prediction.segment_ids())
        assert false_negative_segments(prediction, ground_truth).tolist() == []

    def test_union_zero_guard_with_handcrafted_components(self):
        # A ground-truth Segmentation whose component overlaps the prediction
        # but lies entirely on unannotated pixels: the raw component images
        # intersect, yet the valid union is empty — the guard must yield 0.0,
        # not a division error.
        shape = (4, 6)
        pred = np.zeros(shape, dtype=np.int64)
        pred[1:3, 1:4] = 1
        gt_source = np.full(shape, -1, dtype=np.int64)
        gt_source[1:3, 1:4] = 1
        ground_truth = extract_segments(gt_source, ignore_id=-1)
        # Re-declare every pixel unannotated while keeping the components.
        ground_truth = dataclasses.replace(
            ground_truth, labels=np.full(shape, -1, dtype=np.int64)
        )
        prediction = extract_segments(pred)
        segment_id = _ids_of_class(prediction, 1)[0]
        ious = segment_ious(prediction, ground_truth)
        assert ious[segment_id - 1] == 0.0
        assert ious.tolist() == list(_reference_segment_ious(prediction, ground_truth).values())


class TestPrecisionRecallIgnoredSegments:
    def test_fully_ignored_predicted_segment_is_silently_skipped(self):
        # Predicted segment of class 1 sits entirely on unannotated ground
        # truth: it has no defined precision and must be absent from the
        # precision dict (documented behaviour), while other segments of the
        # class are unaffected.
        pred = np.zeros((6, 10), dtype=np.int64)
        pred[1:3, 1:3] = 1     # fully ignored below
        pred[4:6, 6:9] = 1     # annotated
        gt = np.zeros((6, 10), dtype=np.int64)
        gt[1:3, 1:3] = -1
        gt[4:6, 6:9] = 1
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt, ignore_id=-1)
        ignored_ids = [
            sid for sid in _ids_of_class(prediction, 1)
            if np.all(gt[prediction.components == sid] == -1)
        ]
        assert len(ignored_ids) == 1
        precision, recall = segment_precision_recall(
            prediction, ground_truth, class_ids=[1]
        )
        assert ignored_ids[0] not in precision
        annotated = [sid for sid in _ids_of_class(prediction, 1) if sid not in ignored_ids]
        assert set(precision) == set(annotated)
        assert precision[annotated[0]] == 1.0
        reference = _reference_segment_precision_recall(
            prediction, ground_truth, class_ids=[1]
        )
        assert (precision, recall) == reference
        assert [list(d) for d in (precision, recall)] == [list(d) for d in reference]

    def test_partially_ignored_segment_uses_annotated_pixels_only(self):
        pred = np.zeros((4, 6), dtype=np.int64)
        pred[1:3, 1:5] = 1     # 8 pixels
        gt = np.zeros((4, 6), dtype=np.int64)
        gt[1:3, 1:3] = 1       # 4 pixels correct
        gt[1:3, 3:5] = -1      # 4 pixels unannotated
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt, ignore_id=-1)
        precision, _recall = segment_precision_recall(
            prediction, ground_truth, class_ids=[1]
        )
        segment_id = _ids_of_class(prediction, 1)[0]
        # 4 annotated pixels, all of class 1 -> precision 1.0 over denom 4.
        assert precision[segment_id] == 1.0

    def test_recall_counts_all_ground_truth_pixels(self):
        # Recall denominators are full GT segment sizes (GT segments never
        # contain unannotated pixels by construction).
        pred = np.zeros((4, 6), dtype=np.int64)
        pred[1:3, 1:3] = 1
        gt = np.zeros((4, 6), dtype=np.int64)
        gt[1:3, 1:5] = 1
        prediction = extract_segments(pred)
        ground_truth = extract_segments(gt, ignore_id=-1)
        _precision, recall = segment_precision_recall(
            prediction, ground_truth, class_ids=[1]
        )
        gt_segment = _ids_of_class(ground_truth, 1)[0]
        assert recall[gt_segment] == 4 / 8
