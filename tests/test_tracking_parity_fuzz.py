"""Parity-fuzz harness for the sparse contingency-table segment tracking.

Every case builds a seeded random video sequence — chunky segments that move
frame over frame, split, vanish and reappear, under both connectivities —
and asserts the vectorised :func:`match_segments` and a full
:class:`SegmentTracker` run are **bitwise-identical** to the retained
``_reference_match_segments`` per-segment-mask implementation: same match
dicts (including insertion order, which encodes the greedy tie-breaks), same
track assignments, same track histories.

Shift dicts deliberately include exact zeros (the contingency-table path),
arbitrary float shifts, integral shifts and half-integer shifts (exercising
numpy's banker's rounding, whose result depends on the parity of each pixel
coordinate).

A tracemalloc gate asserts the fast path's peak memory no longer scales with
``n_segments × H×W`` (the reference materialises one dense mask per current
segment before the pair loop even starts).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from reference.tracking import _reference_match_segments
from repro.core.segments import Segmentation, extract_segments
from repro.timedynamic.tracking import SegmentTracker, match_segments

#: Number of generated fuzz cases per test.
N_CASES = 60


def _random_frames(seed: int):
    """A seeded random frame sequence plus the case's parameters."""
    rng = np.random.default_rng(seed)
    cell = int(rng.integers(3, 7))
    grid_h = int(rng.integers(4, 10))
    grid_w = int(rng.integers(4, 12))
    n_classes = int(rng.integers(2, 7))
    n_frames = int(rng.integers(2, 5))
    connectivity = 4 if rng.uniform() < 0.3 else 8

    base = np.kron(
        rng.integers(0, n_classes, size=(grid_h, grid_w)),
        np.ones((cell, cell), dtype=np.int64),
    ).astype(np.int64)
    height, width = base.shape
    frames = []
    for frame_index in range(n_frames):
        # Global motion plus per-frame clutter: rectangles overwrite moving
        # segments (splits/vanishes), occasional empty-ish frames.
        frame = np.roll(
            base,
            (frame_index * int(rng.integers(0, cell)), frame_index * int(rng.integers(-2, 3))),
            axis=(0, 1),
        ).copy()
        for _ in range(int(rng.integers(0, 4))):
            r0 = int(rng.integers(0, height))
            c0 = int(rng.integers(0, width))
            r1 = min(height, r0 + int(rng.integers(1, 2 * cell)))
            c1 = min(width, c0 + int(rng.integers(1, 2 * cell)))
            frame[r0:r1, c0:c1] = int(rng.integers(0, n_classes))
        if rng.uniform() < 0.05:
            frame[:, :] = 0
        frames.append(frame)
    return frames, connectivity, rng


def _random_shifts(segmentation: Segmentation, rng: np.random.Generator):
    """Random shift dict mixing zero, float, integral and half-integer shifts."""
    shifts = {}
    for segment_id in segmentation.segment_ids().tolist():
        u = rng.uniform()
        if u < 0.35:
            continue  # no entry: the (0.0, 0.0) default
        if u < 0.5:
            shifts[segment_id] = (0.0, 0.0)
        elif u < 0.65:
            shifts[segment_id] = (
                float(rng.integers(-4, 5)), float(rng.integers(-4, 5))
            )
        elif u < 0.8:
            # Half-integer shifts hit numpy's round-half-to-even, whose
            # result depends on each pixel coordinate's parity.
            shifts[segment_id] = (
                float(rng.integers(-3, 4)) + 0.5, float(rng.integers(-3, 4)) + 0.5
            )
        else:
            shifts[segment_id] = (
                float(rng.uniform(-6.0, 6.0)), float(rng.uniform(-6.0, 6.0))
            )
    return shifts


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(N_CASES))
def test_match_segments_parity(seed):
    frames, connectivity, rng = _random_frames(seed)
    segmentations = [extract_segments(f, connectivity=connectivity) for f in frames]
    min_overlap_fraction = [0.0, 0.1, 0.3][seed % 3]
    for previous, current in zip(segmentations, segmentations[1:]):
        shifts = _random_shifts(previous, rng)
        fast = match_segments(previous, current, shifts, min_overlap_fraction)
        reference = _reference_match_segments(
            previous, current, shifts, min_overlap_fraction
        )
        assert fast == reference, f"seed={seed}"
        # Insertion order encodes the greedy acceptance order.
        assert list(fast) == list(reference), f"seed={seed}"


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(N_CASES))
def test_tracker_parity(seed):
    frames, connectivity, _rng = _random_frames(seed)
    fast_tracker = SegmentTracker()
    reference_tracker = SegmentTracker(match_fn=_reference_match_segments)
    for frame in frames:
        fast_assignment = fast_tracker.update(
            extract_segments(frame, connectivity=connectivity)
        )
        reference_assignment = reference_tracker.update(
            extract_segments(frame, connectivity=connectivity)
        )
        assert fast_assignment == reference_assignment, f"seed={seed}"
    assert len(fast_tracker.tracks) == len(reference_tracker.tracks)
    assert fast_tracker.tracks.keys() == reference_tracker.tracks.keys()
    for track_id, track in fast_tracker.tracks.items():
        reference = reference_tracker.tracks[track_id]
        assert track.segment_history == reference.segment_history, f"seed={seed}"
        assert track.centroid_history == reference.centroid_history, f"seed={seed}"
        assert track.class_id == reference.class_id


@pytest.mark.fuzz
def test_matching_peak_memory_does_not_scale_with_segments():
    """Peak tracking memory must stay far below n_segments × H×W.

    The reference pre-builds one dense boolean mask per current segment
    (``n_segments × H×W`` bytes) before the pair loop; the sparse fast path
    only ever holds O(H×W) index arrays and the n_prev × n_curr overlap
    table.
    """
    rng = np.random.default_rng(0)
    cell = 16
    grid = rng.integers(0, 8, size=(256 // cell, 512 // cell))
    base = np.kron(grid, np.ones((cell, cell), dtype=np.int64)).astype(np.int64)
    previous = extract_segments(base)
    current = extract_segments(np.roll(base, (3, -5), axis=(0, 1)))
    n_segments = min(previous.n_segments, current.n_segments)
    assert n_segments >= 100
    shifts = _random_shifts(previous, rng)
    frame_bytes = base.size  # one dense boolean mask

    match_segments(previous, current, shifts)  # warm caches outside the trace
    fresh_previous = extract_segments(base)
    tracemalloc.start()
    match_segments(fresh_previous, current, shifts)
    _size, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # The reference needs >= n_segments dense masks; allow the fast path a
    # generous fixed number of full-frame-sized arrays (argsort + pixel
    # groups + contingency codes are all O(H×W) int64).
    assert peak < 64 * frame_bytes, (
        f"peak {peak} bytes >= 64 frames; n_segments={n_segments}, "
        f"reference-style scaling would be {n_segments * frame_bytes}"
    )
    assert peak < n_segments * frame_bytes / 4
