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

Segment table
-------------

A :class:`Segmentation` is a table: next to the label map and the component
image it holds one array per segment attribute (class id, size, bounding
box, coordinate sums, centroid), where row ``i`` is segment id ``i + 1``.
:func:`extract_segments` fills every column with array expressions from one
labelling pass, and every consumer — IoU, the metric extractor, the tracker,
the Fig. 1 rendering — reads those arrays; :func:`segment_ious` returns an
array aligned the same way.

Contingency-table matching
--------------------------

All matching routines are vectorised through a *sparse contingency table*
(:func:`repro.utils.connected_components.pair_contingency`): one
``np.bincount`` pass over the paired ``(pred_component, 2·gt_component +
invalid)`` codes, *invalid* marking the unannotated (``ignore_id``) pixels,
yields the valid and the invalid intersection size of **every**
predicted/ground-truth component pair at once.  From that one table the
per-segment quantities fall out without ever re-scanning the image:

* ``|k ∩ K'|`` is the sum of the valid table entries of k against the
  intersecting same-class ground-truth components (eq. (2)'s union K');
* ``|k ∪ K'|`` is ``|k ∩ valid| + |K'| - |k ∩ K'|`` where ``valid`` masks the
  annotated (non-ignore) pixels, so no union mask is ever materialised;
* false negatives and category-level precision/recall use a second table of
  ``(gt_component, predicted_label)`` pairs, again one pass.

The previous per-segment implementations — O(n_segments × H×W) full-image
scans — are kept as the test oracle ``tests/reference/segments.py``; the
parity-fuzz suite (``tests/test_segments_parity_fuzz.py``, run with
``pytest -m fuzz``) asserts the vectorised results are bitwise-equal to them
on hundreds of randomized label maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.utils.connected_components import label_components, pair_contingency
from repro.utils.validation import check_same_shape

#: Sentinel class id that never equals a real class (the lookup entry of the
#: background id 0).
_NO_CLASS = np.iinfo(np.int64).min


@dataclass
class Segmentation:
    """A label map decomposed into segments, held as a table.

    Segment ids run ``1..n`` (0 = ignore / background); row ``i`` of every
    per-segment array describes segment id ``i + 1``.

    Attributes
    ----------
    labels:
        The (H, W) label map the decomposition came from.
    components:
        (H, W) ``int64`` array of segment ids.
    class_ids:
        (n,) ``int64`` class id of each segment.
    sizes:
        (n,) ``int64`` pixel count of each segment.
    boxes:
        (n, 4) ``int64`` bounding boxes (top, left, bottom, right), bottom and
        right exclusive.
    coordinate_sums:
        (n, 2) ``float64`` sums of the segment's pixel row and column indices
        (exact integers).
    centroids:
        (n, 2) ``float64`` mean pixel (row, column) of each segment.
    connectivity:
        Neighbourhood used for the decomposition (4 or 8).
    """

    labels: np.ndarray
    components: np.ndarray
    class_ids: np.ndarray
    sizes: np.ndarray
    boxes: np.ndarray
    coordinate_sums: np.ndarray
    centroids: np.ndarray
    connectivity: int = 8

    @property
    def n_segments(self) -> int:
        """Number of segments in the decomposition."""
        return int(self.class_ids.shape[0])

    def segment_ids(self) -> np.ndarray:
        """All segment ids, ``1..n``."""
        return np.arange(1, self.n_segments + 1, dtype=np.int64)

    def class_lookup(self) -> np.ndarray:
        """(n + 1,) component-id → class-id table; id 0 maps to a sentinel
        that never compares equal to a real class."""
        return np.concatenate(([_NO_CLASS], self.class_ids))


def extract_segments(labels: np.ndarray, connectivity: int = 8, ignore_id: int = -1) -> Segmentation:
    """Decompose a label map into connected components per class.

    All classes are decomposed at once: two neighbouring pixels belong to the
    same segment iff they carry the same class label.  One run-length
    labelling pass (:func:`~repro.utils.connected_components.label_components`)
    yields the component image together with every segment's first pixel
    (hence its class id), bounding box, size and coordinate sums, all reduced
    per horizontal run; the centroids are one array expression on top.
    """
    labelling = label_components(labels, connectivity=connectivity, background=ignore_id)
    sizes = labelling.sizes
    # Centroid as mean of bounding-box-local coordinates plus the box offset:
    # the coordinate sums are exact integers in float64, so this reproduces
    # the per-segment np.mean()-based result bitwise.
    corners = labelling.boxes[:, :2]
    centroids = (labelling.coordinate_sums - sizes[:, None] * corners) / sizes[:, None] + corners
    return Segmentation(
        labels=labelling.labels,
        components=labelling.components,
        class_ids=labelling.labels.ravel()[labelling.first_index],
        sizes=sizes,
        boxes=labelling.boxes,
        coordinate_sums=labelling.coordinate_sums,
        centroids=centroids,
        connectivity=connectivity,
    )


def segment_ious(
    prediction: Segmentation,
    ground_truth: Segmentation,
    ignore_id: int = -1,
) -> np.ndarray:
    """Segment-wise IoU of every predicted segment against the ground truth.

    Following eq. (2) of the paper, the ground-truth reference K' of a
    predicted segment is the union of all ground-truth components that
    intersect it *and* carry its class.  Pixels without ground truth
    (``ignore_id``) are excluded from both intersection and union.

    Vectorised over segments: one contingency table of ``(pred_component,
    2·gt_component + invalid)`` pairs replaces the per-segment full-image
    scans (see the module docstring); *invalid* marks the pixels whose
    ground-truth label is ``ignore_id``.  Returns an (n,) ``float64`` array,
    entry ``i`` the IoU(k) in [0, 1] of segment id ``i + 1``; a segment whose
    reference union K' is empty — including the all-ignore ground-truth case
    where the union of annotated pixels is zero — gets IoU 0.0.
    """
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    pred_class = prediction.class_lookup()
    gt_class = ground_truth.class_lookup()

    # Intersecting (k, k') pairs are determined on the raw component images —
    # exactly like the reference, which collects candidates before masking out
    # unannotated pixels — while intersection/union sizes only count valid
    # (annotated) pixels.  Invalid pixels are told by their label, not by GT
    # component 0: ``ignore_id`` may differ from the one the ground truth was
    # extracted with.
    gt_code = 2 * ground_truth.components
    gt_code += ground_truth.labels == ignore_id
    pair_pred, pair_code, pair_counts = pair_contingency(prediction.components, gt_code)
    pair_gt = pair_code >> 1
    valid = (pair_code & 1) == 0
    matched = (pair_pred > 0) & (pred_class[pair_pred] == gt_class[pair_gt])
    # Rows are sorted by (pred, code): a (k, k') pair with valid and invalid
    # pixels takes two adjacent rows, of which the first stands for the pair.
    distinct = np.ones(pair_pred.size, dtype=bool)
    distinct[1:] = (pair_pred[1:] != pair_pred[:-1]) | (pair_gt[1:] != pair_gt[:-1])

    n_bins = prediction.n_segments + 1
    valid_counts = np.where(valid, pair_counts, 0)
    gt_valid_sizes = np.bincount(pair_gt, weights=valid_counts, minlength=gt_class.size)
    pred_valid_sizes = np.bincount(pair_pred, weights=valid_counts, minlength=n_bins)
    intersections = np.bincount(
        pair_pred[matched], weights=valid_counts[matched], minlength=n_bins
    )
    # |K'| per predicted segment: each intersecting GT component is counted
    # once per predicted segment, on the pair's first row.
    first = matched & distinct
    reference_sizes = np.bincount(
        pair_pred[first], weights=gt_valid_sizes[pair_gt[first]], minlength=n_bins
    )
    has_reference = np.zeros(n_bins, dtype=bool)
    has_reference[pair_pred[matched]] = True

    unions = pred_valid_sizes + reference_sizes - intersections
    with np.errstate(divide="ignore", invalid="ignore"):
        ious = np.where(
            has_reference & (unions > 0), intersections / np.maximum(unions, 1.0), 0.0
        )
    return ious[1:]


def false_negative_segments(
    prediction: Segmentation, ground_truth: Segmentation, ignore_id: int = -1
) -> np.ndarray:
    """Ids of ground-truth segments completely overlooked by the prediction.

    A ground-truth segment of class c is a false negative iff no pixel of it
    is predicted as class c (zero intersection with the predicted class mask).
    Computed from one ``(gt_component, predicted_label)`` contingency pass.
    """
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    pair_gt, pair_label, _counts = pair_contingency(
        ground_truth.components, prediction.labels
    )
    covered = pair_label == ground_truth.class_lookup()[pair_gt]
    detected = np.zeros(ground_truth.n_segments + 1, dtype=bool)
    detected[pair_gt[covered]] = True
    return np.flatnonzero(~detected[1:] & (ground_truth.class_ids != ignore_id)) + 1


def _category_fractions(
    segmentation: Segmentation,
    components: np.ndarray,
    labels: np.ndarray,
    class_list: np.ndarray,
) -> Dict[int, float]:
    """{segment id: fraction of its listed pixels whose label lies in the set},
    for the segments of *segmentation* whose class lies in the set.

    *components* and *labels* are aligned flat pixel arrays (the pixels that
    count); one contingency pass gives every segment's hits and total, and a
    segment without counted pixels is left out.
    """
    n_bins = segmentation.n_segments + 1
    pair_component, pair_label, pair_counts = pair_contingency(components, labels)
    totals = np.bincount(pair_component, weights=pair_counts, minlength=n_bins)
    in_set = np.isin(pair_label, class_list)
    hits = np.bincount(
        pair_component[in_set], weights=pair_counts[in_set], minlength=n_bins
    )
    ids = np.flatnonzero(np.isin(segmentation.class_ids, class_list) & (totals[1:] > 0)) + 1
    return dict(zip(ids.tolist(), (hits[ids] / totals[ids]).tolist()))


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
        class is in *class_ids*, in ascending id order.
    recall:
        Dict ground-truth-segment-id → recall, for ground-truth segments whose
        class is in *class_ids*, in ascending id order.
    """
    check_same_shape(prediction.labels, ground_truth.labels, "prediction", "ground_truth")
    class_list = np.array(sorted(set(int(c) for c in class_ids)), dtype=np.int64)
    valid_flat = (ground_truth.labels != ignore_id).ravel()
    precision = _category_fractions(
        prediction,
        prediction.components.ravel()[valid_flat],
        ground_truth.labels.ravel()[valid_flat],
        class_list,
    )
    recall = _category_fractions(
        ground_truth, ground_truth.components.ravel(), prediction.labels.ravel(), class_list
    )
    return precision, recall
