"""Seed segment-metric extraction, one bincount pass per metric column.

The oracle of :meth:`repro.core.metrics.SegmentMetricsExtractor._compute_features`:
the fused extraction's feature matrix is bitwise equal to this one
(``tests/test_core_metrics_dataset.py``), and
``benchmarks/bench_extraction_fused.py`` times the two.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from reference.heatmaps import _reference_dispersion_heatmaps
from repro.core.metrics import SegmentMetricsExtractor
from repro.core.segments import Segmentation


def _reference_compute_features(
    extractor: SegmentMetricsExtractor, probs: np.ndarray, prediction: Segmentation
) -> np.ndarray:
    """Seed column-at-a-time extraction (one bincount pass per metric).

    Retained verbatim as the parity ground truth of the fused
    :meth:`SegmentMetricsExtractor._compute_features` of *extractor* and as
    the baseline timed by ``benchmarks/bench_extraction_fused.py``; do not
    use on hot paths.
    """
    components = prediction.components
    n_segments = prediction.n_segments
    n_bins = n_segments + 1
    flat_components = components.ravel()
    height, width = components.shape

    sizes = np.bincount(flat_components, minlength=n_bins).astype(np.float64)
    interior = extractor._interior_mask(components)
    interior_flat = interior.ravel()
    sizes_in = np.bincount(
        flat_components[interior_flat], minlength=n_bins
    ).astype(np.float64)
    sizes_bd = sizes - sizes_in

    heatmaps = _reference_dispersion_heatmaps(probs)

    def _segment_mean(values: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Mean of *values* per segment (optionally restricted to a mask)."""
        flat_values = values.ravel()
        if mask is None:
            sums = np.bincount(flat_components, weights=flat_values, minlength=n_bins)
            counts = sizes
        else:
            flat_mask = mask.ravel()
            sums = np.bincount(
                flat_components[flat_mask], weights=flat_values[flat_mask], minlength=n_bins
            )
            counts = np.bincount(flat_components[flat_mask], minlength=n_bins).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
        return means

    columns: List[np.ndarray] = []
    # geometry ------------------------------------------------------------
    safe_bd = np.maximum(sizes_bd, 1.0)
    columns.append(sizes)                       # S
    columns.append(sizes_in)                    # S_in
    columns.append(sizes_bd)                    # S_bd
    columns.append(sizes / safe_bd)             # S_rel
    columns.append(sizes_in / safe_bd)          # S_rel_in
    # dispersion ----------------------------------------------------------
    boundary = ~interior
    for key in ("E", "M", "V"):
        heatmap = heatmaps[key]
        mean_all = _segment_mean(heatmap)
        mean_in = _segment_mean(heatmap, interior)
        mean_bd = _segment_mean(heatmap, boundary)
        columns.append(mean_all)                               # D_mean
        columns.append(mean_in)                                # D_in_mean
        columns.append(mean_bd)                                # D_bd_mean
        columns.append(mean_all * sizes_bd / np.maximum(sizes, 1.0))      # D_rel
        columns.append(mean_in * sizes_bd / np.maximum(sizes_in, 1.0))    # D_rel_in
    # context ---------------------------------------------------------------
    class_per_segment = np.zeros(n_bins, dtype=np.float64)
    is_thing = np.zeros(n_bins, dtype=np.float64)
    thing_ids = set(extractor.label_space.thing_ids())
    for sid, class_id in enumerate(prediction.class_ids.tolist(), start=1):
        class_per_segment[sid] = class_id
        is_thing[sid] = 1.0 if class_id in thing_ids else 0.0
    columns.append(class_per_segment)
    columns.append(is_thing)
    rows_grid, cols_grid = np.meshgrid(
        np.arange(height, dtype=np.float64),
        np.arange(width, dtype=np.float64),
        indexing="ij",
    )
    centroid_row = _segment_mean(rows_grid) / max(1, height - 1)
    centroid_col = _segment_mean(cols_grid) / max(1, width - 1)
    columns.append(centroid_row)
    columns.append(centroid_col)
    columns.append(_segment_mean(probs.max(axis=2)))            # pmax_mean
    # per-class mean probabilities -----------------------------------------
    for class_index in range(extractor.label_space.n_classes):
        columns.append(_segment_mean(probs[:, :, class_index]))

    matrix = np.stack(columns, axis=1)
    # Drop the background bin 0; segments are 1..n.
    return matrix[1:, :]
