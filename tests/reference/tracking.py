"""Seed segment matching between two frames: one dense mask per segment.

The original O(n_prev × n_curr × H×W) implementation that the sparse
single-pass :func:`repro.timedynamic.tracking.match_segments` replaced, kept
verbatim with its two helpers as the ground truth of
``tests/test_tracking_parity_fuzz.py`` (same match dicts, same insertion
order, same greedy tie-breaks) and as the baseline of
``benchmarks/bench_tracking.py``; do not use it on hot paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.segments import Segmentation


def _reference_match_segments(
    previous: Segmentation,
    current: Segmentation,
    shifts: Optional[Dict[int, Tuple[float, float]]] = None,
    min_overlap_fraction: float = 0.1,
) -> Dict[int, int]:
    """Per-segment-mask reference for :func:`match_segments`.

    The original O(n_prev × n_curr × H×W) implementation, retained verbatim
    as the parity-fuzz ground truth and for the tracking benchmark; do not use
    it on hot paths.
    """
    if not 0.0 <= min_overlap_fraction <= 1.0:
        raise ValueError("min_overlap_fraction must be in [0, 1]")
    shifts = shifts or {}
    candidates: List[Tuple[int, int, int]] = []
    current_masks = {sid: current.components == sid for sid in current.segment_ids().tolist()}
    for prev_id in previous.segment_ids().tolist():
        prev_class = int(previous.class_ids[prev_id - 1])
        prev_size = int(previous.sizes[prev_id - 1])
        prev_box = tuple(previous.boxes[prev_id - 1].tolist())
        prev_mask = previous.components == prev_id
        shift = shifts.get(prev_id, (0.0, 0.0))
        for curr_id in current.segment_ids().tolist():
            if int(current.class_ids[curr_id - 1]) != prev_class:
                continue
            # Cheap bounding-box rejection before the pixel-level overlap.
            curr_box = tuple(current.boxes[curr_id - 1].tolist())
            if not _boxes_close(prev_box, curr_box, shift, margin=8):
                continue
            overlap = _overlap_after_shift(prev_mask, current_masks[curr_id], shift)
            smaller = min(prev_size, int(current.sizes[curr_id - 1]))
            if smaller > 0 and overlap / smaller >= min_overlap_fraction:
                candidates.append((overlap, prev_id, curr_id))
    candidates.sort(key=lambda item: -item[0])
    matched_prev: set = set()
    matched_curr: set = set()
    matches: Dict[int, int] = {}
    for overlap, prev_id, curr_id in candidates:
        if prev_id in matched_prev or curr_id in matched_curr:
            continue
        matches[prev_id] = curr_id
        matched_prev.add(prev_id)
        matched_curr.add(curr_id)
    return matches


def _boxes_close(
    box_a: Tuple[int, int, int, int],
    box_b: Tuple[int, int, int, int],
    shift: Tuple[float, float],
    margin: int,
) -> bool:
    """Whether bounding box *a*, shifted, overlaps box *b* within a margin."""
    top_a, left_a, bottom_a, right_a = box_a
    top_b, left_b, bottom_b, right_b = box_b
    top_a += shift[0] - margin
    bottom_a += shift[0] + margin
    left_a += shift[1] - margin
    right_a += shift[1] + margin
    return not (
        bottom_a <= top_b or bottom_b <= top_a or right_a <= left_b or right_b <= left_a
    )


def _overlap_after_shift(
    old_mask: np.ndarray,
    new_mask: np.ndarray,
    shift: Tuple[float, float],
) -> int:
    """Pixel overlap of *old_mask* shifted by *shift* with *new_mask*."""
    height, width = old_mask.shape
    rows, cols = np.nonzero(old_mask)
    if rows.size == 0:
        return 0
    shifted_rows = np.round(rows + shift[0]).astype(np.int64)
    shifted_cols = np.round(cols + shift[1]).astype(np.int64)
    keep = (
        (shifted_rows >= 0)
        & (shifted_rows < height)
        & (shifted_cols >= 0)
        & (shifted_cols < width)
    )
    if not np.any(keep):
        return 0
    return int(np.sum(new_mask[shifted_rows[keep], shifted_cols[keep]]))
