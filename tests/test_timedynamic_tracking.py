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


def _seeded_frames(seed, n_frames=5):
    """Blocky label maps that move by seeded amounts frame over frame, with
    rectangles pasted over them (segments split, vanish and reappear)."""
    rng = np.random.default_rng(seed)
    cell = int(rng.integers(3, 7))
    base = np.kron(
        rng.integers(0, 5, size=(int(rng.integers(4, 9)), int(rng.integers(4, 11)))),
        np.ones((cell, cell), dtype=np.int64),
    )
    frames = []
    for index in range(n_frames):
        motion = (index * int(rng.integers(0, cell)), index * int(rng.integers(-2, 3)))
        frame = np.roll(base, motion, axis=(0, 1))
        for _ in range(int(rng.integers(0, 4))):
            top = int(rng.integers(0, frame.shape[0]))
            left = int(rng.integers(0, frame.shape[1]))
            rows, cols = rng.integers(1, 2 * cell, size=2)
            frame[top:top + rows, left:left + cols] = int(rng.integers(0, 5))
        frames.append(frame)
    return frames


def _on_canvas(frame, offset, canvas_class):
    """*frame* at *offset* inside a canvas of *canvas_class*, 3 pixels wider
    than the frame on the bottom and right."""
    height, width = frame.shape
    canvas = np.full(
        (offset[0] + height + 3, offset[1] + width + 3), canvas_class, dtype=frame.dtype
    )
    canvas[offset[0]:offset[0] + height, offset[1]:offset[1] + width] = frame
    return canvas


class TestTranslation:
    """Translating every frame of a sequence leaves its tracks unchanged.

    Each frame sits at the same offset inside a larger canvas of one extra
    class.  The canvas is segment 1 of every frame (its first pixel leads the
    scan order) and keeps one track of its own, track 0; every original
    segment id, and every original track id, shifts by one, and centroids
    shift by the offset.  The offsets are even: expected shifts can be
    half-integers, which ``np.round`` rounds half to even, so only a
    translation by even rows and columns maps the rounded pixel positions
    onto each other.
    """

    @staticmethod
    def assert_translation_invariant(frames, offset):
        canvas_class = int(max(frame.max() for frame in frames)) + 1
        plain, moved = SegmentTracker(), SegmentTracker()
        for frame in frames:
            plain.update(extract_segments(frame))
            moved.update(extract_segments(_on_canvas(frame, offset, canvas_class)))
        assert len(moved.tracks) == len(plain.tracks) + 1
        canvas = moved.tracks[0]
        assert canvas.class_id == canvas_class
        assert canvas.segment_history == {index: 1 for index in range(len(frames))}
        for track_id, track in plain.tracks.items():
            translated = moved.tracks[track_id + 1]
            assert translated.class_id == track.class_id
            assert translated.segment_history == {
                index: segment_id + 1 for index, segment_id in track.segment_history.items()
            }
            np.testing.assert_allclose(
                np.asarray(translated.centroid_history) - offset,
                track.centroid_history,
                rtol=0.0,
                atol=1e-9,
            )

    @pytest.mark.parametrize("offset", [(2, 4), (64, 130)])
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_sequence(self, seed, offset):
        self.assert_translation_invariant(_seeded_frames(seed), offset)

    @pytest.mark.parametrize("offset", [(2, 4), (64, 130)])
    def test_predicted_video_sequence(self, kitti_like, mobilenet_network, offset):
        for sequence_index in range(kitti_like.n_sequences):
            frames = [
                np.argmax(mobilenet_network.predict_probabilities(scene.labels, index), axis=2)
                for index, scene in enumerate(kitti_like.sequence(sequence_index).frames)
            ]
            self.assert_translation_invariant(frames, offset)
