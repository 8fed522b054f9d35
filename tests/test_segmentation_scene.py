"""Tests for repro.segmentation.scene."""

import numpy as np
import pytest

from repro.segmentation.scene import SceneConfig, SceneObject, StreetSceneGenerator


class TestSceneConfig:
    def test_defaults_valid(self):
        SceneConfig()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(height=16, width=16)

    def test_invalid_fraction_ranges(self):
        with pytest.raises(ValueError):
            SceneConfig(horizon_fraction_range=(0.9, 0.2))
        with pytest.raises(ValueError):
            SceneConfig(road_fraction_range=(0.0, 0.5))

    def test_invalid_ignore_margin(self):
        with pytest.raises(ValueError):
            SceneConfig(ignore_margin=-1)

    def test_scaled(self):
        config = SceneConfig(height=64, width=128)
        scaled = config.scaled(96, 192)
        assert (scaled.height, scaled.width) == (96, 192)
        assert scaled.n_cars_range == config.n_cars_range


class TestSceneObject:
    def test_moved_applies_velocity(self):
        obj = SceneObject(0, 13, 10.0, 20.0, 5.0, 8.0, velocity=(1.0, -2.0))
        moved = obj.moved(2.0)
        assert moved.center_row == 12.0
        assert moved.center_col == 16.0
        assert obj.center_row == 10.0  # original unchanged


class TestStreetSceneGenerator:
    def test_scene_shape_and_dtype(self, scene, scene_config):
        assert scene.labels.shape == (scene_config.height, scene_config.width)
        assert scene.labels.dtype == np.int64

    def test_labels_within_class_range(self, scene, label_space):
        values = np.unique(scene.labels)
        assert values.min() >= -1
        assert values.max() < label_space.n_classes

    def test_deterministic_per_index(self, scene_config):
        a = StreetSceneGenerator(config=scene_config, random_state=5).generate(3)
        b = StreetSceneGenerator(config=scene_config, random_state=5).generate(3)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_indices_differ(self, scene_generator):
        a = scene_generator.generate(0)
        b = scene_generator.generate(1)
        assert not np.array_equal(a.labels, b.labels)

    def test_independent_of_generation_order(self, scene_config):
        generator = StreetSceneGenerator(config=scene_config, random_state=9)
        direct = generator.generate(4)
        generator2 = StreetSceneGenerator(config=scene_config, random_state=9)
        [generator2.generate(index) for index in range(4)]
        later = generator2.generate(4)
        np.testing.assert_array_equal(direct.labels, later.labels)

    def test_sky_above_road(self, scenes, label_space):
        sky = label_space.id_of("sky")
        road = label_space.id_of("road")
        for scene in scenes:
            sky_rows, _ = np.nonzero(scene.labels == sky)
            road_rows, _ = np.nonzero(scene.labels == road)
            if sky_rows.size and road_rows.size:
                assert sky_rows.mean() < road_rows.mean()

    def test_road_present_and_large(self, scenes, label_space):
        road = label_space.id_of("road")
        for scene in scenes:
            fraction = np.mean(scene.labels == road)
            assert fraction > 0.1

    def test_humans_are_rare(self, scene_generator, label_space):
        scenes = [scene_generator.generate(index) for index in range(8)]
        human_ids = label_space.ids_in_category("human")
        total = 0
        human = 0
        for scene in scenes:
            total += scene.labels.size
            human += int(np.isin(scene.labels, human_ids).sum())
        assert human / total < 0.05  # strong class imbalance

    def test_objects_recorded(self, scene):
        assert len(scene.objects) >= 1
        for obj in scene.objects:
            assert 0 <= obj.class_id < 19

    def test_ignore_margin_applied(self, label_space):
        config = SceneConfig(height=48, width=96, ignore_margin=4)
        scene = StreetSceneGenerator(config=config, random_state=0).generate(0)
        assert np.all(scene.labels[-4:, :] == -1)
        assert np.all(scene.labels[:-4, :] >= 0)

    def test_render_respects_occlusion_order(self, scene_generator, scene):
        # Painting the same objects again yields the identical label map
        # (rendering is deterministic given background and objects).
        repainted = scene_generator.render(scene.background, scene.objects)
        mismatch = np.mean(repainted != scene.labels)
        assert mismatch < 1e-6

    def test_negative_index_raises(self, scene_generator):
        with pytest.raises(ValueError):
            scene_generator.generate(-1)

    def test_perspective_scale_monotone(self, scene_generator):
        horizon = 20
        low = scene_generator._perspective_scale(25, horizon)
        high = scene_generator._perspective_scale(45, horizon)
        assert high >= low
