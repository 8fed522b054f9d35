"""Tests for repro.segmentation.sequence and repro.segmentation.datasets."""

import numpy as np
import pytest

from repro.segmentation.datasets import (
    CityscapesLikeDataset,
    KittiLikeDataset,
    global_frame_index,
)
from repro.segmentation.sequence import SequenceConfig, SequenceGenerator


class TestSequenceConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SequenceConfig(n_frames=0)
        with pytest.raises(ValueError):
            SequenceConfig(spawn_probability=1.5)
        with pytest.raises(ValueError):
            SequenceConfig(despawn_margin=-1)


class TestSequenceGenerator:
    @pytest.fixture(scope="class")
    def sequence(self, scene_config):
        config = SequenceConfig(n_frames=6, scene_config=scene_config)
        return SequenceGenerator(config=config, random_state=3).generate(0)

    def test_number_of_frames(self, sequence):
        assert len(sequence) == 6
        assert sequence.labels().shape[0] == 6

    def test_background_static(self, sequence):
        first = sequence[0]
        last = sequence[-1]
        np.testing.assert_array_equal(first.background, last.background)

    def test_frames_change_over_time(self, sequence):
        assert not np.array_equal(sequence[0].labels, sequence[-1].labels)

    def test_temporal_coherence(self, sequence):
        # Consecutive frames differ in far fewer pixels than distant frames
        # would on average: the scene evolves smoothly.
        diffs = [
            np.mean(sequence[i].labels != sequence[i + 1].labels)
            for i in range(len(sequence) - 1)
        ]
        assert max(diffs) < 0.2

    def test_deterministic(self, scene_config):
        config = SequenceConfig(n_frames=4, scene_config=scene_config)
        a = SequenceGenerator(config=config, random_state=8).generate(1)
        b = SequenceGenerator(config=config, random_state=8).generate(1)
        for frame_a, frame_b in zip(a.frames, b.frames):
            np.testing.assert_array_equal(frame_a.labels, frame_b.labels)

    def test_objects_move(self, sequence):
        # At least one dynamic object changes its position between first and
        # last frame.
        first_positions = {o.object_id: (o.center_row, o.center_col) for o in sequence[0].objects}
        moved = False
        for obj in sequence[-1].objects:
            if obj.object_id in first_positions:
                if abs(obj.center_col - first_positions[obj.object_id][1]) > 0.5:
                    moved = True
        assert moved

    def test_negative_index_raises(self, scene_config):
        generator = SequenceGenerator(
            config=SequenceConfig(n_frames=2, scene_config=scene_config), random_state=0
        )
        with pytest.raises(ValueError):
            generator.generate(-1)


class TestCityscapesLikeDataset:
    def test_split_sizes(self, cityscapes_like):
        assert len(cityscapes_like.train_samples()) == 6
        assert len(cityscapes_like.val_samples()) == 4

    def test_samples_have_ground_truth(self, cityscapes_like):
        for sample in cityscapes_like.iter_val():
            assert sample.has_ground_truth
            assert sample.labels.ndim == 2

    def test_image_ids_unique(self, cityscapes_like):
        ids = [s.image_id for s in cityscapes_like.train_samples()] + [
            s.image_id for s in cityscapes_like.val_samples()
        ]
        assert len(set(ids)) == len(ids)

    def test_rebuilt_sample_is_bitwise_equal(self, cityscapes_like):
        first, again = cityscapes_like.train_sample(0), cityscapes_like.train_sample(0)
        assert again is not first  # nothing is memoised
        assert again.image_id == first.image_id
        np.testing.assert_array_equal(again.labels, first.labels)

    def test_out_of_range(self, cityscapes_like):
        with pytest.raises(IndexError):
            cityscapes_like.val_sample(100)

    def test_train_and_val_differ(self, cityscapes_like):
        assert not np.array_equal(
            cityscapes_like.train_sample(0).labels, cityscapes_like.val_sample(0).labels
        )

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            CityscapesLikeDataset(n_train=-1, n_val=2)

    def test_n_classes(self, cityscapes_like):
        assert cityscapes_like.n_classes == 19


class TestKittiLikeDataset:
    def test_sparse_ground_truth(self, kitti_like):
        samples = kitti_like.samples(0)
        labeled = [s for s in samples if s.has_ground_truth]
        assert 0 < len(labeled) < len(samples)
        assert kitti_like.n_labeled_frames() == len(labeled) * kitti_like.n_sequences

    def test_labeled_frame_indices(self, kitti_like):
        indices = kitti_like.labeled_frame_indices()
        assert all(0 <= i < kitti_like.n_frames_per_sequence for i in indices)
        assert indices == sorted(indices)

    def test_all_samples_count(self, kitti_like):
        assert sum(len(kitti_like.samples(i)) for i in range(kitti_like.n_sequences)) == (
            kitti_like.n_sequences * kitti_like.n_frames_per_sequence
        )

    def test_rebuilt_sequence_is_bitwise_equal(self, kitti_like):
        first, again = kitti_like.sequence(0), kitti_like.sequence(0)
        assert again is not first  # nothing is memoised
        assert len(again) == len(first)
        for frame, frame_again in zip(first.frames, again.frames):
            np.testing.assert_array_equal(frame_again.labels, frame.labels)

    def test_out_of_range(self, kitti_like):
        with pytest.raises(IndexError):
            kitti_like.sequence(99)

    def test_invalid_parameters(self, scene_config):
        with pytest.raises(ValueError):
            KittiLikeDataset(n_sequences=0)
        with pytest.raises(ValueError):
            KittiLikeDataset(labeled_stride=0)


class TestGlobalFrameIndex:
    def test_unique_over_sequences(self):
        seen = set()
        for sequence in range(3):
            for frame in range(5):
                seen.add(global_frame_index(sequence, frame, 5))
        assert len(seen) == 15

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            global_frame_index(0, 5, 5)
        with pytest.raises(ValueError):
            global_frame_index(-1, 0, 5)
