"""Segment extraction and segment-wise IoU.

The paper's failure-mode definitions operate on *segments*: connected
components of the predicted class masks (set Ķ_x) and of the ground-truth
masks (set K_x).  For a predicted segment k of class c, the segment-wise IoU
is computed against K' = the union of all ground-truth components of class c
that intersect k (eq. (2) of the paper):

    IoU(k) = |k ∩ K'| / |k ∪ K'|.

A predicted segment with IoU = 0 is a **false positive**; a ground-truth
segment with zero intersection with predicted components of its class is a
**false negative** ("completely overlooked").

Contingency-table matching
--------------------------

All matching routines are vectorised through a *sparse contingency table*
(:func:`repro.utils.connected_components.pair_contingency`): one
``np.bincount`` pass over the paired ``(pred_component, gt_component)`` ids
yields the intersection size of **every** predicted/ground-truth component
pair at once.  From that table the per-segment quantities fall out without
ever re-scanning the image:

* ``|k ∩ K'|`` is the sum of the table entries of k against the intersecting
  same-class ground-truth components (eq. (2)'s union K');
* ``|k ∪ K'|`` is ``|k ∩ valid| + |K'| - |k ∩ K'|`` where ``valid`` masks the
  annotated (non-ignore) pixels, so no union mask is ever materialised;
* false negatives and category-level precision/recall use a second table of
  ``(gt_component, predicted_label)`` pairs, again one pass.

The previous per-segment implementations — O(n_segments × H×W) full-image
scans — are retained verbatim as ``_reference_segment_ious``,
``_reference_false_negative_segments``, ``_reference_false_positive_segments``
and ``_reference_segment_precision_recall``; the parity-fuzz suite
(``tests/test_segments_parity_fuzz.py``, run with ``pytest -m fuzz``) asserts
the vectorised results are bitwise-equal to them on hundreds of randomized
label maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.connected_components import label_components, pair_contingency
from repro.utils.validation import check_same_shape

#: Sentinel class id that never equals a real class (used in lookup tables for
#: component ids that carry no segment, e.g. the background id 0).
_NO_CLASS = np.iinfo(np.int64).min


@dataclass(frozen=True)
class SegmentInfo:
    """Bookkeeping for one segment (connected component of one class mask)."""

    segment_id: int
    class_id: int
    size: int
    bounding_box: Tuple[int, int, int, int]
    """(top, left, bottom, right), bottom/right exclusive."""
    centroid: Tuple[float, float]


@dataclass
class Segmentation:
    """A label map decomposed into segments.

    Attributes
    ----------
    labels:
        The (H, W) label map the decomposition came from.
    components:
        (H, W) ``int64`` array of segment ids (0 = ignore / background).
    segments:
        Per-segment information indexed by segment id.
    connectivity:
        Neighbourhood used for the decomposition (4 or 8).
    """

    labels: np.ndarray
    components: np.ndarray
    segments: Dict[int, SegmentInfo] = field(default_factory=dict)
    connectivity: int = 8

    @property
    def n_segments(self) -> int:
        """Number of segments in the decomposition."""
        return len(self.segments)

    def segment_ids(self) -> List[int]:
        """All segment ids in ascending order."""
        return sorted(self.segments)

    def mask(self, segment_id: int) -> np.ndarray:
        """Boolean mask of one segment."""
        if segment_id not in self.segments:
            raise KeyError(f"unknown segment id {segment_id}")
        return self.components == segment_id

    def class_of(self, segment_id: int) -> int:
        """Class id of one segment."""
        if segment_id not in self.segments:
            raise KeyError(f"unknown segment id {segment_id}")
        return self.segments[segment_id].class_id

    def segments_of_class(self, class_id: int) -> List[int]:
        """Ids of all segments of the given class."""
        return [sid for sid, info in self.segments.items() if info.class_id == class_id]

    def max_component_id(self) -> int:
        """Largest component id present (0 when there are no segments)."""
        upper = int(self.components.max()) if self.components.size else 0
        if self.segments:
            upper = max(upper, max(self.segments))
        return upper

    def pixel_groups(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per-segment pixel coordinates ``(rows, cols)`` in scan order.

        One stable argsort of the component image groups the pixels of every
        segment at once, so no caller ever needs a dense per-segment mask or a
        full-image scan per segment (the tracker's shifted-overlap fast path
        builds on this).  The result is cached on the instance; each array
        pair matches ``np.nonzero(components == segment_id)`` exactly.
        """
        cached = getattr(self, "_pixel_groups", None)
        if cached is not None:
            return cached
        groups: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        flat = self.components.ravel()
        if flat.size:
            width = self.components.shape[1]
            # Stable sort keeps equal ids in ascending pixel order, so each
            # run of the sorted index array is already in scan order.
            order = np.argsort(flat, kind="stable")
            sorted_ids = flat[order]
            run_starts = np.nonzero(np.diff(sorted_ids))[0] + 1
            starts = np.concatenate([[0], run_starts])
            stops = np.concatenate([run_starts, [sorted_ids.size]])
            for start, stop in zip(starts, stops):
                segment_id = int(sorted_ids[start])
                if segment_id == 0:
                    continue
                pixel_index = order[start:stop]
                groups[segment_id] = (pixel_index // width, pixel_index % width)
        self._pixel_groups = groups
        return groups

    def coordinate_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-component-id sums of pixel row and column indices (bin 0 = background).

        Exact integers in float64.  Cached on the instance: the centroids of
        :func:`extract_segments` and of the metric extractor share one pass.
        """
        cached = getattr(self, "_coordinate_sums", None)
        if cached is None:
            flat = self.components.ravel()
            height, width = self.components.shape
            n_bins = self.n_segments + 1
            rows = np.repeat(np.arange(height, dtype=np.float64), width)
            cols = np.tile(np.arange(width, dtype=np.float64), height)
            cached = (
                np.bincount(flat, weights=rows, minlength=n_bins),
                np.bincount(flat, weights=cols, minlength=n_bins),
            )
            self._coordinate_sums = cached
        return cached

    def class_lookup(self, size: Optional[int] = None) -> np.ndarray:
        """Dense component-id → class-id lookup table.

        Ids without a segment (notably the background id 0) map to a sentinel
        that never compares equal to a real class.
        """
        upper = self.max_component_id() if size is None else size
        table = np.full(upper + 1, _NO_CLASS, dtype=np.int64)
        for sid, info in self.segments.items():
            if 0 <= sid <= upper:
                table[sid] = info.class_id
        return table


def extract_segments(labels: np.ndarray, connectivity: int = 8, ignore_id: int = -1) -> Segmentation:
    """Decompose a label map into connected components per class.

    All classes are decomposed at once: two neighbouring pixels belong to the
    same segment iff they carry the same class label.  One labelling pass
    (:func:`~repro.utils.connected_components.label_components`) yields the
    component image together with every segment's first pixel (hence its
    class id) and bounding box; sizes and centroids come from three
    ``np.bincount`` passes rather than one scan per segment.
    """
    labelling = label_components(labels, connectivity=connectivity, background=ignore_id)
    segmentation = Segmentation(
        labels=labelling.labels, components=labelling.components, connectivity=connectivity
    )
    sizes = np.bincount(labelling.components.ravel())
    row_sums, col_sums = segmentation.coordinate_sums()
    class_ids = labelling.labels.ravel()[labelling.first_index].tolist()
    for segment_id, (class_id, (top, left, bottom, right)) in enumerate(
        zip(class_ids, labelling.boxes.tolist()), start=1
    ):
        size = int(sizes[segment_id])
        # Centroid as mean of bounding-box-local coordinates plus the box
        # offset: the coordinate sums are exact integers in float64, so
        # this reproduces the per-segment np.mean()-based result bitwise.
        centroid = (
            float((row_sums[segment_id] - size * top) / size + top),
            float((col_sums[segment_id] - size * left) / size + left),
        )
        segmentation.segments[segment_id] = SegmentInfo(
            segment_id=segment_id,
            class_id=class_id,
            size=size,
            bounding_box=(top, left, bottom, right),
            centroid=centroid,
        )
    return segmentation


def segment_iou(
    prediction: Segmentation,
    ground_truth: Segmentation,
    segment_id: int,
    ignore_id: int = -1,
) -> float:
    """Segment-wise IoU of one predicted segment against the ground truth.

    Following eq. (2) of the paper, the ground-truth reference K' is the union
    of all ground-truth components that intersect the predicted segment *and*
    carry the predicted segment's class.  Pixels without ground truth
    (``ignore_id``) are excluded from both intersection and union.
    """
    ious = segment_ious(prediction, ground_truth, ignore_id=ignore_id, segment_ids=[segment_id])
    return ious[segment_id]


def segment_ious(
    prediction: Segmentation,
    ground_truth: Segmentation,
    ignore_id: int = -1,
    segment_ids: Optional[List[int]] = None,
) -> Dict[int, float]:
    """Segment-wise IoU for all (or selected) predicted segments.

    Vectorised over segments: two contingency-table passes replace the per
    segment full-image scans (see the module docstring).  Returns a dict
    mapping predicted segment id → IoU(k) in [0, 1]; a segment whose reference
    union K' is empty — including the all-ignore ground-truth case where the
    union of annotated pixels is zero — gets IoU 0.0.
    """
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    if segment_ids is None:
        segment_ids = prediction.segment_ids()
    else:
        for segment_id in segment_ids:
            if segment_id not in prediction.segments:
                raise KeyError(segment_id)
    if not segment_ids:
        return {}

    n_pred = prediction.max_component_id()
    n_gt = ground_truth.max_component_id()
    pred_class = prediction.class_lookup(n_pred)
    gt_class = ground_truth.class_lookup(n_gt)

    valid_flat = (ground_truth.labels != ignore_id).ravel()
    pred_flat = prediction.components.ravel()
    gt_flat = ground_truth.components.ravel()

    # Intersecting (k, k') pairs are determined on the raw component images —
    # exactly like the reference, which collects candidates before masking out
    # unannotated pixels — while intersection/union sizes only count valid
    # (annotated) pixels.
    pair_pred, pair_gt, _pair_counts = pair_contingency(pred_flat, gt_flat)
    vpred_flat = pred_flat[valid_flat]
    vgt_flat = gt_flat[valid_flat]
    vpair_pred, vpair_gt, vpair_counts = pair_contingency(vpred_flat, vgt_flat)

    matched = (
        (pair_pred > 0)
        & (pair_gt > 0)
        & (pred_class[np.clip(pair_pred, 0, n_pred)] == gt_class[np.clip(pair_gt, 0, n_gt)])
    )
    vmatched = (
        (vpair_pred > 0)
        & (vpair_gt > 0)
        & (pred_class[np.clip(vpair_pred, 0, n_pred)] == gt_class[np.clip(vpair_gt, 0, n_gt)])
    )

    n_bins = n_pred + 1
    gt_valid_sizes = np.bincount(vgt_flat[vgt_flat > 0], minlength=n_gt + 1).astype(np.float64)
    pred_valid_sizes = np.bincount(vpred_flat, minlength=n_bins).astype(np.float64)
    intersections = np.bincount(
        vpair_pred[vmatched], weights=vpair_counts[vmatched], minlength=n_bins
    )
    # |K'| per predicted segment: each intersecting GT component appears in
    # exactly one table row per predicted segment, so its valid size is
    # counted once.
    reference_sizes = np.bincount(
        pair_pred[matched], weights=gt_valid_sizes[pair_gt[matched]], minlength=n_bins
    )
    has_reference = np.zeros(n_bins, dtype=bool)
    has_reference[pair_pred[matched]] = True

    unions = pred_valid_sizes + reference_sizes - intersections
    with np.errstate(divide="ignore", invalid="ignore"):
        ious = np.where(
            has_reference & (unions > 0), intersections / np.maximum(unions, 1.0), 0.0
        )
    return {segment_id: float(ious[segment_id]) for segment_id in segment_ids}


def false_positive_segments(
    prediction: Segmentation, ground_truth: Segmentation, ignore_id: int = -1
) -> List[int]:
    """Ids of predicted segments with zero intersection with same-class ground truth."""
    ious = segment_ious(prediction, ground_truth, ignore_id=ignore_id)
    return sorted(sid for sid, value in ious.items() if value == 0.0)


def false_negative_segments(
    prediction: Segmentation, ground_truth: Segmentation, ignore_id: int = -1
) -> List[int]:
    """Ids of ground-truth segments completely overlooked by the prediction.

    A ground-truth segment of class c is a false negative iff no pixel of it
    is predicted as class c (zero intersection with the predicted class mask).
    Computed from one ``(gt_component, predicted_label)`` contingency pass.
    """
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    n_gt = ground_truth.max_component_id()
    gt_class = ground_truth.class_lookup(n_gt)
    pair_gt, pair_label, _counts = pair_contingency(
        ground_truth.components, prediction.labels
    )
    covered = (pair_gt > 0) & (pair_label == gt_class[np.clip(pair_gt, 0, n_gt)])
    detected = np.zeros(n_gt + 1, dtype=bool)
    detected[pair_gt[covered]] = True
    return sorted(
        sid
        for sid, info in ground_truth.segments.items()
        if info.class_id != ignore_id and not detected[sid]
    )


def segment_precision_recall(
    prediction: Segmentation,
    ground_truth: Segmentation,
    class_ids: List[int],
    ignore_id: int = -1,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Segment-wise precision and recall restricted to the given classes.

    Used by the decision-rule experiments of Section IV (Fig. 5).  The
    matching is performed at the level of the given class *set* (a category
    such as "human" = {person, rider}), as in the paper:

    * precision of a *predicted* segment k whose class is in the set is the
      fraction of its pixels whose ground truth also lies in the set;
    * recall of a *ground-truth* segment k' whose class is in the set is the
      fraction of its pixels predicted as any class of the set.

    Both directions are computed from one contingency-table pass each
    (predicted components × ground-truth labels and ground-truth components ×
    predicted labels).  A predicted segment every pixel of which is
    unannotated (``ignore_id``) has no defined precision and is **silently
    skipped** — it appears in neither returned dict.

    Returns
    -------
    precision:
        Dict predicted-segment-id → precision, for predicted segments whose
        class is in *class_ids*.
    recall:
        Dict ground-truth-segment-id → recall, for ground-truth segments whose
        class is in *class_ids*.
    """
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    class_set = set(int(c) for c in class_ids)
    class_list = np.array(sorted(class_set), dtype=np.int64)
    valid_flat = (ground_truth.labels != ignore_id).ravel()

    n_pred = prediction.max_component_id()
    pred_flat = prediction.components.ravel()
    vpred_flat = pred_flat[valid_flat]
    vgt_labels_flat = ground_truth.labels.ravel()[valid_flat]
    pair_pred, pair_gt_label, pair_counts = pair_contingency(vpred_flat, vgt_labels_flat)
    pred_denoms = np.bincount(pair_pred, weights=pair_counts, minlength=n_pred + 1)
    in_set = np.isin(pair_gt_label, class_list)
    pred_hits = np.bincount(
        pair_pred[in_set], weights=pair_counts[in_set], minlength=n_pred + 1
    )
    precision: Dict[int, float] = {}
    for segment_id, info in prediction.segments.items():
        if info.class_id not in class_set:
            continue
        denom = int(pred_denoms[segment_id]) if segment_id <= n_pred else 0
        if denom == 0:
            continue
        precision[segment_id] = int(pred_hits[segment_id]) / denom

    n_gt = ground_truth.max_component_id()
    pair_gt, pair_pred_label, pair_counts = pair_contingency(
        ground_truth.components, prediction.labels
    )
    gt_denoms = np.bincount(pair_gt, weights=pair_counts, minlength=n_gt + 1)
    in_set = np.isin(pair_pred_label, class_list)
    gt_hits = np.bincount(
        pair_gt[in_set], weights=pair_counts[in_set], minlength=n_gt + 1
    )
    recall: Dict[int, float] = {}
    for segment_id, info in ground_truth.segments.items():
        if info.class_id not in class_set:
            continue
        denom = int(gt_denoms[segment_id]) if segment_id <= n_gt else 0
        if denom == 0:
            continue
        recall[segment_id] = int(gt_hits[segment_id]) / denom
    return precision, recall


# --------------------------------------------------------------------------- -
# Reference implementations (per-segment full-image scans).
#
# These are the original O(n_segments × H×W) routines the vectorised fast
# paths above replaced.  They are kept as the ground truth of the parity-fuzz
# suite and for the matching benchmark; do not use them on hot paths.


def _reference_segment_ious(
    prediction: Segmentation,
    ground_truth: Segmentation,
    ignore_id: int = -1,
    segment_ids: Optional[List[int]] = None,
) -> Dict[int, float]:
    """Per-segment-loop reference for :func:`segment_ious`."""
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    gt_labels = ground_truth.labels
    gt_components = ground_truth.components
    valid = gt_labels != ignore_id
    if segment_ids is None:
        segment_ids = prediction.segment_ids()
    result: Dict[int, float] = {}
    for segment_id in segment_ids:
        info = prediction.segments[segment_id]
        top, left, bottom, right = info.bounding_box
        # The reference union K' can extend beyond the predicted segment's
        # bounding box, so identify intersecting GT components first and then
        # work on the union of both extents.
        pred_mask_box = prediction.components[top:bottom, left:right] == segment_id
        gt_in_box = gt_components[top:bottom, left:right]
        intersecting = np.unique(gt_in_box[pred_mask_box])
        intersecting = [
            gid
            for gid in intersecting
            if gid != 0 and ground_truth.segments[int(gid)].class_id == info.class_id
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


def _reference_false_positive_segments(
    prediction: Segmentation, ground_truth: Segmentation, ignore_id: int = -1
) -> List[int]:
    """Per-segment-loop reference for :func:`false_positive_segments`."""
    ious = _reference_segment_ious(prediction, ground_truth, ignore_id=ignore_id)
    return sorted(sid for sid, value in ious.items() if value == 0.0)


def _reference_false_negative_segments(
    prediction: Segmentation, ground_truth: Segmentation, ignore_id: int = -1
) -> List[int]:
    """Per-segment-loop reference for :func:`false_negative_segments`."""
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    pred_labels = prediction.labels
    out: List[int] = []
    for segment_id, info in ground_truth.segments.items():
        if info.class_id == ignore_id:
            continue
        mask = ground_truth.components == segment_id
        if not np.any(pred_labels[mask] == info.class_id):
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
    for segment_id, info in prediction.segments.items():
        if info.class_id not in class_set:
            continue
        mask = (prediction.components == segment_id) & valid
        denom = int(mask.sum())
        if denom == 0:
            continue
        hits = int(np.sum(np.isin(ground_truth.labels[mask], class_list)))
        precision[segment_id] = hits / denom
    recall: Dict[int, float] = {}
    for segment_id, info in ground_truth.segments.items():
        if info.class_id not in class_set:
            continue
        mask = ground_truth.components == segment_id
        denom = int(mask.sum())
        if denom == 0:
            continue
        hits = int(np.sum(np.isin(prediction.labels[mask], class_list)))
        recall[segment_id] = hits / denom
    return precision, recall
