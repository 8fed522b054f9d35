"""Tests for repro.timedynamic.tracking."""

import numpy as np
import pytest

from repro.core.segments import extract_segments
from repro.timedynamic.tracking import SegmentTracker, match_segments


def _frame_with_box(top, left, size=4, class_id=13, shape=(20, 30)):
    labels = np.zeros(shape, dtype=int)
    labels[top : top + size, left : left + size] = class_id
    return extract_segments(labels)


def _box_id(segmentation, class_id=13):
    """Id of the one segment of *class_id*, read from the table."""
    (segment_id,) = np.flatnonzero(segmentation.class_ids == class_id) + 1
    return int(segment_id)


class TestMatchSegments:
    def test_identical_frames_match_every_segment(self, image_metrics):
        segmentation = image_metrics.prediction
        matches = match_segments(segmentation, segmentation)
        assert len(matches) == segmentation.n_segments
        assert all(prev == curr for prev, curr in matches.items())

    def test_moving_object_matched(self):
        previous = _frame_with_box(5, 5)
        current = _frame_with_box(5, 7)
        matches = match_segments(previous, current)
        prev_box = _box_id(previous)
        curr_box = _box_id(current)
        assert matches.get(prev_box) == curr_box

    def test_shift_enables_matching_fast_objects(self):
        previous = _frame_with_box(5, 5, size=3)
        current = _frame_with_box(5, 13, size=3)
        without_shift = match_segments(previous, current, min_overlap_fraction=0.3)
        prev_box = _box_id(previous)
        with_shift = match_segments(
            previous, current, shifts={prev_box: (0.0, 8.0)}, min_overlap_fraction=0.3
        )
        curr_box = _box_id(current)
        assert with_shift.get(prev_box) == curr_box
        assert without_shift.get(prev_box) != curr_box

    def test_class_mismatch_never_matched(self):
        previous = _frame_with_box(5, 5, class_id=13)
        current = _frame_with_box(5, 5, class_id=11)
        matches = match_segments(previous, current)
        prev_box = _box_id(previous)
        assert prev_box not in matches

    def test_one_to_one_assignment(self):
        labels_prev = np.zeros((20, 30), dtype=int)
        labels_prev[5:9, 5:9] = 13
        previous = extract_segments(labels_prev)
        labels_curr = np.zeros((20, 30), dtype=int)
        labels_curr[5:9, 5:9] = 13
        labels_curr[5:9, 12:16] = 13
        current = extract_segments(labels_curr)
        matches = match_segments(previous, current)
        assert len(set(matches.values())) == len(matches)

    def test_invalid_overlap_fraction(self, image_metrics):
        with pytest.raises(ValueError):
            match_segments(image_metrics.prediction, image_metrics.prediction,
                           min_overlap_fraction=1.5)


class TestSegmentTracker:
    def test_static_sequence_one_track_per_segment(self, image_metrics):
        tracker = SegmentTracker()
        first = tracker.update(image_metrics.prediction)
        second = tracker.update(image_metrics.prediction)
        assert len(tracker.tracks) == image_metrics.prediction.n_segments
        for segment_id, track_id in second.items():
            assert first[segment_id] == track_id

    def test_moving_object_keeps_identity(self):
        tracker = SegmentTracker()
        assignments = []
        for step in range(4):
            frame = _frame_with_box(5, 5 + 2 * step)
            assignments.append(tracker.update(frame))
        box_tracks = set()
        for step, frame_assignment in enumerate(assignments):
            frame = _frame_with_box(5, 5 + 2 * step)
            box_segment = _box_id(frame)
            box_tracks.add(frame_assignment[box_segment])
        assert len(box_tracks) == 1

    def test_track_history_records_frames(self):
        tracker = SegmentTracker()
        for step in range(3):
            tracker.update(_frame_with_box(5, 5 + step))
        lengths = [len(track.segment_history) for track in tracker.tracks.values()]
        assert max(lengths) == 3

    def test_flicker_survival(self):
        # The object disappears for one frame and is re-identified afterwards
        # provided max_missed_frames allows it.
        tracker = SegmentTracker(max_missed_frames=2)
        frame_a = _frame_with_box(5, 5)
        empty = extract_segments(np.zeros((20, 30), dtype=int))
        frame_b = _frame_with_box(5, 6)
        tracker.update(frame_a)
        tracker.update(empty)
        assignment = tracker.update(frame_b)
        box_segment = _box_id(frame_b)
        # The re-appearing box may either continue the old track or start a
        # new one depending on the overlap test; the tracker must at least
        # not crash and must assign some track.
        assert box_segment in assignment

    def test_new_objects_get_new_tracks(self):
        tracker = SegmentTracker()
        tracker.update(_frame_with_box(5, 5))
        labels = np.zeros((20, 30), dtype=int)
        labels[5:9, 5:9] = 13
        labels[12:16, 20:24] = 11
        second = extract_segments(labels)
        tracker.update(second)
        assert len(tracker.tracks) >= 3  # background, first box, new person

    def test_expected_shift_estimation(self):
        tracker = SegmentTracker()
        for step in range(3):
            tracker.update(_frame_with_box(5, 5 + 3 * step))
        moving = [t for t in tracker.tracks.values() if t.class_id == 13][0]
        shift = moving.expected_shift()
        assert abs(shift[1] - 3.0) < 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SegmentTracker(max_missed_frames=-1)

    def test_real_sequence_tracking(self, kitti_like, mobilenet_network, extractor):
        sequence = kitti_like.sequence(0)
        tracker = SegmentTracker()
        n_segments_total = 0
        for index, scene in enumerate(sequence.frames):
            probs = mobilenet_network.predict_probabilities(scene.labels, index=index)
            segmentation = extract_segments(np.argmax(probs, axis=2))
            assignment = tracker.update(segmentation)
            n_segments_total += segmentation.n_segments
            assert set(assignment) == set(segmentation.segment_ids().tolist())
        # Tracking compresses segments into fewer identities.
        assert len(tracker.tracks) < n_segments_total
