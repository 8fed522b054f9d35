"""Construction of segment-wise metrics µ(k).

For every predicted segment k the paper aggregates pixel-wise dispersion
measures and geometric quantities into a metric vector µ(k) ∈ R^m (Section II,
eq. (3)).  Following the MetaSeg construction ([16] of the paper) we compute:

* geometry: segment size S, interior size S_in, boundary size S_bd, and the
  fractality ratios S/S_bd and S_in/S_bd ("quotient of volume and boundary
  length");
* dispersion: for each heatmap D ∈ {E (entropy), M (probability margin),
  V (variation ratio)} the means over the whole segment, its interior and its
  boundary (D̄, D̄_in, D̄_bd) plus the boundary-relative variants
  D̄·S_bd/S and D̄_in·S_bd/max(S_in,1);
* mean class probabilities: the softmax probability of every class averaged
  over the segment (cprob_0 … cprob_{C-1}) and the mean probability of the
  predicted class itself;
* context: the predicted class id, a thing/stuff flag and the normalised
  centroid position.

The extractor is fully vectorised over segments.  One tiled sweep over the
softmax field (:func:`repro.core.heatmaps.fused_dispersion_heatmaps`)
validates it and yields the argmax and a column-major ``(H·W, 4)`` matrix of
the E, M, V and max-probability heatmaps.  The interior and boundary sums
and pixel counts are ``np.bincount`` passes over one int64 index that splits
each segment into its interior and its boundary; the index is freed before
the one sparse (CSR) segment-membership matrix is built.  That matrix has
int32 indices from a stable argsort, with no CSC intermediate, and its
products with each heatmap column and with the ``(H·W, C)`` field give the
whole-segment sums of the heatmaps and of every class probability.  The
centroids reuse the coordinate sums of the segment decomposition.  The
features are computed before the ground truth is labelled, and the
sweep's maps are freed first, so the two peaks do not stack.  The extractor
holds no mutable state, so one instance is shared freely across threads.
The column-at-a-time seed implementation is kept as the test oracle
``tests/reference/metrics.py``; the fused path is bitwise-identical to it
(``tests/test_core_metrics_dataset.py`` fuzzes the parity,
``benchmarks/bench_extraction_fused.py`` gates the speedup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.core.dataset import MetricsDataset
from repro.core.heatmaps import (
    SWEEP_COLUMNS,
    SoftmaxSweep,
    fused_dispersion_heatmaps,
)
from repro.core.segments import Segmentation, extract_segments, segment_ious
from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.utils.validation import check_label_map, check_probability_field, check_same_shape

__all__ = [
    "ImageMetrics",
    "METRIC_GROUPS",
    "SegmentMetricsExtractor",
    # Re-exported seams: the extraction ledger wraps these module attributes.
    "check_probability_field",
    "fused_dispersion_heatmaps",
]

#: Named groups of metrics, usable to select feature subsets (ablations and
#: the entropy-only baseline of Table I).
METRIC_GROUPS: Dict[str, Sequence[str]] = {
    "entropy_only": ("E_mean",),
    "dispersion": (
        "E_mean", "E_in_mean", "E_bd_mean", "E_rel", "E_rel_in",
        "M_mean", "M_in_mean", "M_bd_mean", "M_rel", "M_rel_in",
        "V_mean", "V_in_mean", "V_bd_mean", "V_rel", "V_rel_in",
    ),
    "geometry": ("S", "S_in", "S_bd", "S_rel", "S_rel_in"),
    "context": ("predicted_class", "is_thing", "centroid_row", "centroid_col", "pmax_mean"),
}


@dataclass
class ImageMetrics:
    """Intermediate result of metric extraction for one image."""

    dataset: MetricsDataset
    prediction: Segmentation
    ground_truth: Optional[Segmentation]


class SegmentMetricsExtractor:
    """Compute segment-wise metrics µ(k) from a softmax field.

    Parameters
    ----------
    label_space:
        Label space used to name the per-class probability features and to
        derive the thing/stuff flag.
    connectivity:
        Connectivity used for the connected-component decomposition.
    ignore_id:
        Ground-truth value marking pixels without annotation.
    """

    def __init__(
        self,
        label_space: Optional[LabelSpace] = None,
        connectivity: int = 8,
        ignore_id: int = -1,
    ) -> None:
        self.label_space = label_space or cityscapes_label_space()
        if connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")
        self.connectivity = connectivity
        self.ignore_id = ignore_id

    # ------------------------------------------------------------------ ---
    def feature_names(self) -> List[str]:
        """Names of all features produced by :meth:`extract`, in order."""
        names: List[str] = []
        names.extend(METRIC_GROUPS["geometry"])
        names.extend(METRIC_GROUPS["dispersion"])
        names.extend(METRIC_GROUPS["context"])
        names.extend(f"cprob_{spec.name.replace(' ', '_')}" for spec in self.label_space)
        return names

    def extract(
        self,
        probs: np.ndarray,
        gt_labels: Optional[np.ndarray] = None,
        image_id: str = "image",
    ) -> MetricsDataset:
        """Extract the structured metrics dataset for one image.

        Parameters
        ----------
        probs:
            (H, W, C) softmax field of the segmentation network.
        gt_labels:
            Optional ground-truth label map.  When given, the segment-wise IoU
            targets are computed; when omitted the dataset carries only
            features (used e.g. for deployment-time quality estimation).
        image_id:
            Identifier stored with every segment for bookkeeping.
        """
        return self.extract_full(probs, gt_labels=gt_labels, image_id=image_id).dataset

    def extract_full(
        self,
        probs: np.ndarray,
        gt_labels: Optional[np.ndarray] = None,
        image_id: str = "image",
    ) -> ImageMetrics:
        """Like :meth:`extract` but also return the segment decompositions."""
        # One sweep validates the field and yields its argmax and heatmaps.
        sweep = fused_dispersion_heatmaps(probs)
        probs = sweep.field
        if probs.shape[2] != self.label_space.n_classes:
            raise ValueError(
                f"probability field has {probs.shape[2]} classes, "
                f"label space has {self.label_space.n_classes}"
            )
        prediction = extract_segments(sweep.labels, connectivity=self.connectivity)
        # The features come first, so the sweep's maps are freed before the
        # ground truth is labelled and matched.
        features = self._compute_features(sweep, prediction)
        del sweep
        ground_truth = None
        iou: Optional[np.ndarray] = None
        if gt_labels is not None:
            gt_labels = check_label_map(gt_labels)
            check_same_shape(probs, gt_labels, "probs", "gt_labels")
            ground_truth = extract_segments(
                gt_labels, connectivity=self.connectivity, ignore_id=self.ignore_id
            )
            iou = segment_ious(prediction, ground_truth, ignore_id=self.ignore_id)

        dataset = MetricsDataset(
            features=features,
            feature_names=self.feature_names(),
            segment_ids=prediction.segment_ids(),
            class_ids=prediction.class_ids,
            image_ids=np.full(prediction.n_segments, image_id, dtype=object),
            iou=iou,
        )
        return ImageMetrics(dataset=dataset, prediction=prediction, ground_truth=ground_truth)

    # ------------------------------------------------------------------ ---
    def _compute_features(self, sweep: SoftmaxSweep, prediction: Segmentation) -> np.ndarray:
        """Fused aggregation of all segment metrics from one softmax sweep.

        Bitwise-identical to the seed column-at-a-time path kept as the
        oracle ``tests/reference/metrics.py``, on ``sweep.field``: every
        per-segment sum adds the same values to the same segment in the
        same ascending pixel order, starting from zero, as the seed's
        one-bincount-per-column loop — ``np.bincount`` adds each bin's
        weights in pixel order, and each CSR row of the membership matrix
        holds its pixels in ascending order — and the pixel counts are
        exact integers.
        """
        components = prediction.components
        n_bins = prediction.n_segments + 1
        flat_components = components.ravel()
        height, width = components.shape
        n_classes = sweep.field.shape[2]
        maps = dict(zip(SWEEP_COLUMNS, sweep.values.T))

        # Interior and boundary sums come from np.bincount over one split
        # index, freed before the membership matrix is built: bins
        # 0..n_bins-1 gather each segment's interior pixels, bins n_bins..
        # its boundary pixels.  The index is int64, so bincount casts
        # nothing; bin 0 (background) of every sum is dropped.
        split = np.multiply(~self._interior_mask(components).ravel(), n_bins, dtype=np.int64)
        split += flat_components
        split_sizes = np.bincount(split, minlength=2 * n_bins).astype(np.float64)
        split_sums = {
            key: np.bincount(split, weights=maps[key], minlength=2 * n_bins)
            for key in ("E", "M", "V")
        }
        del split
        sizes_in, sizes_bd = split_sizes[1:n_bins], split_sizes[n_bins + 1:]
        sizes = sizes_in + sizes_bd
        # E, M, V and pmax summed over each whole segment, one product each.
        membership = _membership(flat_components, n_bins)
        sums = {key: (membership @ column)[1:] for key, column in maps.items()}

        def _mean(totals: np.ndarray, counts: np.ndarray) -> np.ndarray:
            """Per-segment mean from precomputed sums and counts."""
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(counts > 0, totals / np.maximum(counts, 1.0), 0.0)

        # One (n, n_features) matrix, filled column by column in
        # feature_names() order.
        matrix = np.empty((prediction.n_segments, len(self.feature_names())), dtype=np.float64)
        columns = iter(matrix.T)

        def put(values: np.ndarray) -> None:
            next(columns)[:] = values

        # geometry ------------------------------------------------------------
        safe_bd = np.maximum(sizes_bd, 1.0)
        put(sizes)                                  # S
        put(sizes_in)                               # S_in
        put(sizes_bd)                               # S_bd
        put(sizes / safe_bd)                        # S_rel
        put(sizes_in / safe_bd)                     # S_rel_in
        # dispersion ----------------------------------------------------------
        for key in ("E", "M", "V"):
            mean_all = _mean(sums[key], sizes)
            mean_in = _mean(split_sums[key][1:n_bins], sizes_in)
            put(mean_all)                                          # D_mean
            put(mean_in)                                           # D_in_mean
            put(_mean(split_sums[key][n_bins + 1:], sizes_bd))     # D_bd_mean
            put(mean_all * sizes_bd / np.maximum(sizes, 1.0))      # D_rel
            put(mean_in * sizes_bd / np.maximum(sizes_in, 1.0))    # D_rel_in
        # context ---------------------------------------------------------------
        put(prediction.class_ids)
        put(np.isin(prediction.class_ids, self.label_space.thing_ids()))
        put(_mean(prediction.coordinate_sums[:, 0], sizes) / max(1, height - 1))
        put(_mean(prediction.coordinate_sums[:, 1], sizes) / max(1, width - 1))
        put(_mean(sums["pmax"], sizes))                            # pmax_mean
        # per-class mean probabilities -----------------------------------------
        class_sums = membership @ sweep.field.reshape(flat_components.size, n_classes)
        for class_index in range(n_classes):
            put(_mean(class_sums[1:, class_index], sizes))
        return matrix

    def _interior_mask(self, components: np.ndarray) -> np.ndarray:
        """Pixels all of whose 4-neighbours belong to the same segment."""
        height, width = components.shape
        interior = np.ones((height, width), dtype=bool)
        interior[:-1, :] &= components[:-1, :] == components[1:, :]
        interior[1:, :] &= components[1:, :] == components[:-1, :]
        interior[:, :-1] &= components[:, :-1] == components[:, 1:]
        interior[:, 1:] &= components[:, 1:] == components[:, :-1]
        # Image border pixels count as boundary pixels of their segment.
        interior[0, :] = False
        interior[-1, :] = False
        interior[:, 0] = False
        interior[:, -1] = False
        return interior


def _membership(rows: np.ndarray, n_rows: int) -> sparse.csr_matrix:
    """(n_rows, H·W) CSR matrix with a 1.0 at (rows[p], p) for every pixel p.

    Built straight as CSR, with no CSC intermediate: the row pointers are
    the cumulative row counts and the column indices a stable argsort of
    ``rows``, both int32 (int64 past 2**31 pixels).  The stable sort lists
    each row's pixels in ascending order, so a product with an (H·W,) or
    (H·W, k) matrix adds that matrix's rows in the same order as a
    per-column ``np.bincount(rows, weights=...)``.
    """
    index_type = np.int32 if rows.size <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n_rows + 1, dtype=index_type)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    indices = np.argsort(rows, kind="stable").astype(index_type)
    return sparse.csr_matrix((np.ones(rows.size), indices, indptr), shape=(n_rows, rows.size))
