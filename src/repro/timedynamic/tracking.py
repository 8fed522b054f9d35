"""Light-weight segment tracking over video frames.

Section III: "we develop a light-weight tracking algorithm based on semantic
segmentation, since by assumption the latter is already available.  Segments
in consecutive frames are matched according to their overlap in multiple
frames.  These measures are improved by shifting segments according to their
expected location in the subsequent frame."

The tracker below follows that recipe:

* candidate matches between a segment in frame t-1 and a segment in frame t
  require equal predicted class;
* the matching score is the pixel overlap after *shifting* the old segment by
  its expected displacement (estimated from the track's recent centroid
  motion);
* greedy one-to-one assignment by decreasing score; unmatched new segments
  start new tracks, unmatched old tracks stay alive for a configurable number
  of frames (so short flickers do not break identities).

Sparse single-pass matching
---------------------------

``match_segments`` is vectorised the same way as the static matching in
:mod:`repro.core.segments`:

* all zero-shift candidate overlaps come from **one** contingency-table pass
  (:func:`repro.utils.connected_components.pair_contingency`) over the two
  component images;
* segments with a non-zero expected shift scatter their sparse pixel-index
  run (one stable argsort of the previous component image groups every
  segment's pixels at once, sliced by the table's ``sizes``) by the shift
  and read the overlaps against *all* current segments from one
  ``np.bincount`` — never a dense per-segment mask, never a full-image scan
  inside the pair loop;
* classes, boxes and sizes of both frames are read straight from the
  :class:`~repro.core.segments.Segmentation` table, and the tracker takes
  each new track's class and centroid from the same arrays.

The per-segment-mask implementation is kept as the test oracle
``tests/reference/tracking.py``; ``tests/test_tracking_parity_fuzz.py`` asserts
the two are bitwise-identical (same match dicts, same insertion order, same
greedy tie-breaks) on randomized video sequences, and
``benchmarks/bench_tracking.py`` gates the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.segments import Segmentation
from repro.utils.connected_components import pair_contingency

#: Bounding-box margin (pixels) of the cheap candidate prefilter.
_BOX_MARGIN = 8


@dataclass
class TrackedSegment:
    """One segment instance tracked through time."""

    track_id: int
    class_id: int
    last_frame: int
    last_segment_id: int
    centroid_history: List[Tuple[float, float]] = field(default_factory=list)
    segment_history: Dict[int, int] = field(default_factory=dict)
    """Mapping frame index → segment id within that frame."""
    missed_frames: int = 0

    def expected_shift(self) -> Tuple[float, float]:
        """Expected displacement per frame from the recent centroid motion."""
        if len(self.centroid_history) < 2:
            return (0.0, 0.0)
        (prev_row, prev_col), (last_row, last_col) = self.centroid_history[-2:]
        return (last_row - prev_row, last_col - prev_col)


def match_segments(
    previous: Segmentation,
    current: Segmentation,
    shifts: Optional[Dict[int, Tuple[float, float]]] = None,
    min_overlap_fraction: float = 0.1,
) -> Dict[int, int]:
    """Greedy one-to-one matching of segments between two consecutive frames.

    Vectorised over segment pairs (see the module docstring): zero-shift
    overlaps come from one contingency-table pass, shifted overlaps from one
    sparse scatter per shifted segment.  Bitwise-identical to the
    per-segment-mask oracle ``tests/reference/tracking.py``.

    Parameters
    ----------
    previous, current:
        Segment decompositions of frame t-1 and frame t.
    shifts:
        Optional expected displacement per previous-frame segment id.
    min_overlap_fraction:
        Minimum overlap (relative to the smaller of the two segments) for a
        match to be accepted.

    Returns
    -------
    dict
        Mapping previous segment id → current segment id.
    """
    if not 0.0 <= min_overlap_fraction <= 1.0:
        raise ValueError("min_overlap_fraction must be in [0, 1]")
    n_prev = previous.n_segments
    n_curr = current.n_segments
    if not n_prev or not n_curr:
        return {}
    # Row i is previous segment id i + 1, column j current segment id j + 1.
    shift_arr = np.zeros((n_prev, 2), dtype=np.float64)
    if shifts:
        shifted_ids = np.fromiter(shifts, dtype=np.int64, count=len(shifts))
        known = (shifted_ids >= 1) & (shifted_ids <= n_prev)
        shift_values = np.array(list(shifts.values()), dtype=np.float64).reshape(-1, 2)
        shift_arr[shifted_ids[known] - 1] = shift_values[known]
    prev_boxes = previous.boxes.astype(np.float64)
    curr_boxes = current.boxes.astype(np.float64)

    # Candidate mask: equal class and shifted bounding boxes within the margin
    # (the oracle's per-pair box test, in the same float arithmetic,
    # broadcast over all pairs).
    shifted_top = prev_boxes[:, 0:1] + (shift_arr[:, 0:1] - _BOX_MARGIN)
    shifted_bottom = prev_boxes[:, 2:3] + (shift_arr[:, 0:1] + _BOX_MARGIN)
    shifted_left = prev_boxes[:, 1:2] + (shift_arr[:, 1:2] - _BOX_MARGIN)
    shifted_right = prev_boxes[:, 3:4] + (shift_arr[:, 1:2] + _BOX_MARGIN)
    separated = (
        (shifted_bottom <= curr_boxes[None, :, 0])
        | (curr_boxes[None, :, 2] <= shifted_top)
        | (shifted_right <= curr_boxes[None, :, 1])
        | (curr_boxes[None, :, 3] <= shifted_left)
    )
    candidate = (previous.class_ids[:, None] == current.class_ids[None, :]) & ~separated

    # Pairwise overlaps, computed without any per-segment dense mask.
    overlap = np.zeros((n_prev, n_curr), dtype=np.int64)
    zero_shift = (shift_arr[:, 0] == 0.0) & (shift_arr[:, 1] == 0.0)
    if np.any(zero_shift):
        # One pass yields every unshifted candidate overlap at once.
        table_prev, table_curr, table_counts = pair_contingency(
            previous.components, current.components
        )
        keep = (table_prev > 0) & (table_curr > 0)
        rows, cols, counts = table_prev[keep] - 1, table_curr[keep] - 1, table_counts[keep]
        unshifted = zero_shift[rows]
        overlap[rows[unshifted], cols[unshifted]] = counts[unshifted]
    if not np.all(zero_shift):
        # A stable argsort groups every segment's pixels, in scan order, into
        # one run: segment i + 1 owns order[stops[i] - sizes[i]:stops[i]].
        height, width = previous.components.shape
        prev_flat = previous.components.ravel()
        pixel_order = np.argsort(prev_flat, kind="stable")
        stops = prev_flat.size - int(previous.sizes.sum()) + np.cumsum(previous.sizes)
        curr_flat = current.components.ravel()
        for row in np.flatnonzero(~zero_shift):
            pixel_index = pixel_order[stops[row] - previous.sizes[row]:stops[row]]
            shifted_rows = np.round(pixel_index // width + shift_arr[row, 0]).astype(np.int64)
            shifted_cols = np.round(pixel_index % width + shift_arr[row, 1]).astype(np.int64)
            keep = (
                (shifted_rows >= 0)
                & (shifted_rows < height)
                & (shifted_cols >= 0)
                & (shifted_cols < width)
            )
            if not np.any(keep):
                continue
            hits = curr_flat[shifted_rows[keep] * width + shifted_cols[keep]]
            overlap[row, :] = np.bincount(hits, minlength=n_curr + 1)[1:]

    # Acceptance test and greedy assignment, replicating the reference's
    # candidate order (row-major over sorted ids) and stable descending sort.
    smaller = np.minimum(previous.sizes[:, None], current.sizes[None, :])
    accepted = candidate & (smaller > 0) & (
        overlap / np.maximum(smaller, 1) >= min_overlap_fraction
    )
    cand_rows, cand_cols = np.nonzero(accepted)
    order = np.argsort(-overlap[cand_rows, cand_cols], kind="stable")
    matched_prev: set = set()
    matched_curr: set = set()
    matches: Dict[int, int] = {}
    for prev_id, curr_id in zip((cand_rows[order] + 1).tolist(), (cand_cols[order] + 1).tolist()):
        if prev_id in matched_prev or curr_id in matched_curr:
            continue
        matches[prev_id] = curr_id
        matched_prev.add(prev_id)
        matched_curr.add(curr_id)
    return matches


class SegmentTracker:
    """Track predicted segments through a sequence of frames.

    Usage: call :meth:`update` once per frame (in order) with the frame's
    :class:`~repro.core.segments.Segmentation`; afterwards :attr:`tracks`
    contains every track with its per-frame segment ids.

    ``match_fn`` overrides the frame-pair matcher (same signature as
    :func:`match_segments`); it exists so the parity-fuzz suite and the
    tracking benchmark can run a whole tracker against the per-segment-mask
    oracle of ``tests/reference/tracking.py``.
    """

    def __init__(
        self,
        max_missed_frames: int = 2,
        min_overlap_fraction: float = 0.1,
        match_fn: Optional[Callable[..., Dict[int, int]]] = None,
    ) -> None:
        if max_missed_frames < 0:
            raise ValueError("max_missed_frames must be non-negative")
        self.max_missed_frames = max_missed_frames
        self.min_overlap_fraction = min_overlap_fraction
        self.tracks: Dict[int, TrackedSegment] = {}
        self._active: Dict[int, TrackedSegment] = {}
        self._next_track_id = 0
        self._frame_index = -1
        self._previous: Optional[Segmentation] = None
        self._match_fn = match_fn or match_segments

    # ------------------------------------------------------------------ ---
    def update(self, segmentation: Segmentation) -> Dict[int, int]:
        """Ingest the next frame; return mapping segment id → track id."""
        self._frame_index += 1
        frame = self._frame_index
        class_ids = segmentation.class_ids.tolist()
        centroids = [tuple(centroid) for centroid in segmentation.centroids.tolist()]
        assignment: Dict[int, int] = {}
        matched_current = set()
        if self._previous is not None:
            prev_segment_to_track = {
                track.last_segment_id: track
                for track in self._active.values()
                if track.last_frame == frame - 1
            }
            shifts = {
                prev_segment_id: track.expected_shift()
                for prev_segment_id, track in prev_segment_to_track.items()
            }
            matches = self._match_fn(
                self._previous, segmentation, shifts, self.min_overlap_fraction
            )
            for prev_segment_id, curr_segment_id in matches.items():
                track = prev_segment_to_track.get(prev_segment_id)
                if track is None:
                    continue
                track.last_frame = frame
                track.last_segment_id = curr_segment_id
                track.missed_frames = 0
                track.centroid_history.append(centroids[curr_segment_id - 1])
                track.segment_history[frame] = curr_segment_id
                assignment[curr_segment_id] = track.track_id
                matched_current.add(curr_segment_id)
        for segment_id in range(1, segmentation.n_segments + 1):
            if segment_id not in matched_current:
                track = TrackedSegment(
                    track_id=self._next_track_id,
                    class_id=class_ids[segment_id - 1],
                    last_frame=frame,
                    last_segment_id=segment_id,
                    centroid_history=[centroids[segment_id - 1]],
                    segment_history={frame: segment_id},
                )
                self.tracks[track.track_id] = track
                self._active[track.track_id] = track
                self._next_track_id += 1
                assignment[segment_id] = track.track_id
        # Age unmatched active tracks and retire the stale ones.
        for track in list(self._active.values()):
            if track.last_frame != frame:
                track.missed_frames += 1
                if track.missed_frames > self.max_missed_frames:
                    del self._active[track.track_id]
        self._previous = segmentation
        return assignment
