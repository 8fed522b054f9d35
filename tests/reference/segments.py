"""Seed segment matching: per-segment full-image scans.

The original O(n_segments × H×W) routines that the contingency-table paths of
:mod:`repro.core.segments` replaced, kept verbatim as the ground truth of the
parity-fuzz suite (``tests/test_segments_parity_fuzz.py``,
``tests/test_segments_edge_cases.py``) and as the baseline of
``benchmarks/bench_segment_matching.py``; do not use them on hot paths.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.segments import Segmentation
from repro.utils.validation import check_same_shape


def _reference_segment_ious(
    prediction: Segmentation,
    ground_truth: Segmentation,
    ignore_id: int = -1,
) -> Dict[int, float]:
    """Per-segment-loop reference for :func:`segment_ious` ({segment id: IoU})."""
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    gt_labels = ground_truth.labels
    gt_components = ground_truth.components
    valid = gt_labels != ignore_id
    result: Dict[int, float] = {}
    for segment_id in prediction.segment_ids().tolist():
        class_id = int(prediction.class_ids[segment_id - 1])
        top, left, bottom, right = prediction.boxes[segment_id - 1].tolist()
        # The reference union K' can extend beyond the predicted segment's
        # bounding box, so identify intersecting GT components first and then
        # work on the union of both extents.
        pred_mask_box = prediction.components[top:bottom, left:right] == segment_id
        gt_in_box = gt_components[top:bottom, left:right]
        intersecting = np.unique(gt_in_box[pred_mask_box])
        intersecting = [
            gid
            for gid in intersecting
            if gid != 0 and int(ground_truth.class_ids[int(gid) - 1]) == class_id
        ]
        if not intersecting:
            result[segment_id] = 0.0
            continue
        reference_mask = np.isin(gt_components, intersecting)
        pred_mask = prediction.components == segment_id
        intersection = np.sum(pred_mask & reference_mask & valid)
        union = np.sum((pred_mask | reference_mask) & valid)
        result[segment_id] = float(intersection / union) if union > 0 else 0.0
    return result


def _reference_false_negative_segments(
    prediction: Segmentation, ground_truth: Segmentation, ignore_id: int = -1
) -> List[int]:
    """Per-segment-loop reference for :func:`false_negative_segments`."""
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    pred_labels = prediction.labels
    out: List[int] = []
    for segment_id, class_id in enumerate(ground_truth.class_ids.tolist(), start=1):
        if class_id == ignore_id:
            continue
        mask = ground_truth.components == segment_id
        if not np.any(pred_labels[mask] == class_id):
            out.append(segment_id)
    return sorted(out)


def _reference_segment_precision_recall(
    prediction: Segmentation,
    ground_truth: Segmentation,
    class_ids: List[int],
    ignore_id: int = -1,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Per-segment-loop reference for :func:`segment_precision_recall`."""
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    class_set = set(int(c) for c in class_ids)
    class_list = sorted(class_set)
    valid = ground_truth.labels != ignore_id
    precision: Dict[int, float] = {}
    for segment_id, class_id in enumerate(prediction.class_ids.tolist(), start=1):
        if class_id not in class_set:
            continue
        mask = (prediction.components == segment_id) & valid
        denom = int(mask.sum())
        if denom == 0:
            continue
        hits = int(np.sum(np.isin(ground_truth.labels[mask], class_list)))
        precision[segment_id] = hits / denom
    recall: Dict[int, float] = {}
    for segment_id, class_id in enumerate(ground_truth.class_ids.tolist(), start=1):
        if class_id not in class_set:
            continue
        mask = ground_truth.components == segment_id
        denom = int(mask.sum())
        if denom == 0:
            continue
        hits = int(np.sum(np.isin(prediction.labels[mask], class_list)))
        recall[segment_id] = hits / denom
    return precision, recall
