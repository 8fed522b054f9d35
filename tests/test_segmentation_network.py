"""Tests for repro.segmentation.network."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.evaluation.segmentation import pixel_accuracy
from repro.segmentation.network import (
    NetworkProfile,
    SimulatedSegmentationNetwork,
    generic_profile,
    mobilenetv2_profile,
    xception65_profile,
)
from repro.segmentation.scene import SceneConfig, StreetSceneGenerator


class TestNetworkProfile:
    def test_presets_valid(self):
        xception65_profile()
        mobilenetv2_profile()

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            NetworkProfile(miss_rate=1.5)
        with pytest.raises(ValueError):
            NetworkProfile(confusion_rate=-0.1)
        with pytest.raises(ValueError):
            NetworkProfile(overconfident_error_rate=2.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            NetworkProfile(hallucination_size=(5, 2))
        with pytest.raises(ValueError):
            NetworkProfile(uncertainty_blob_size=(0, 2))

    def test_invalid_logits(self):
        with pytest.raises(ValueError):
            NetworkProfile(peak_correct=0.0)
        with pytest.raises(ValueError):
            NetworkProfile(confidence_field_amplitude=1.0)

    def test_invalid_non_negative_fields(self):
        for name in ("hallucination_rate", "boundary_jitter", "logit_noise", "smooth_sigma",
                     "miss_size_scale", "uncertainty_blob_rate"):
            with pytest.raises(ValueError, match=f"{name} must be non-negative"):
                NetworkProfile(**{name: -0.5})

    def test_invalid_blob_strength_and_field_scale(self):
        for strength in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"uncertainty_blob_strength must be in \(0, 1\]"):
                NetworkProfile(uncertainty_blob_strength=strength)
        with pytest.raises(ValueError, match="confidence_field_scale must be >= 1"):
            NetworkProfile(confidence_field_scale=0)

    def test_with_overrides(self):
        profile = xception65_profile().with_overrides(miss_rate=0.0)
        assert profile.miss_rate == 0.0
        assert profile.name == "xception65"


class TestSimulatedSegmentationNetwork:
    def test_output_is_probability_field(self, probability_field, scene, label_space):
        assert probability_field.shape == (*scene.labels.shape, label_space.n_classes)
        np.testing.assert_allclose(probability_field.sum(axis=2), 1.0, atol=1e-9)
        assert probability_field.min() >= 0.0

    def test_deterministic_per_index(self, mobilenet_network, scene):
        a = mobilenet_network.predict_probabilities(scene.labels, index=5)
        b = mobilenet_network.predict_probabilities(scene.labels, index=5)
        np.testing.assert_array_equal(a, b)

    def test_different_indices_differ(self, mobilenet_network, scene):
        a = mobilenet_network.predict_probabilities(scene.labels, index=0)
        b = mobilenet_network.predict_probabilities(scene.labels, index=1)
        assert not np.array_equal(a, b)

    def test_prediction_close_to_ground_truth(self, mobilenet_network, scene):
        prediction = mobilenet_network.predict_labels(scene.labels, index=0)
        assert pixel_accuracy(scene.labels, prediction) > 0.7

    def test_prediction_not_identical_to_ground_truth(self, mobilenet_network, scene):
        prediction = mobilenet_network.predict_labels(scene.labels, index=0)
        assert np.any(prediction != scene.labels)

    def test_stronger_profile_is_more_accurate(self, xception_network, mobilenet_network, scenes):
        accuracy_strong = np.mean([
            pixel_accuracy(s.labels, xception_network.predict_labels(s.labels, index=i))
            for i, s in enumerate(scenes)
        ])
        accuracy_weak = np.mean([
            pixel_accuracy(s.labels, mobilenet_network.predict_labels(s.labels, index=i))
            for i, s in enumerate(scenes)
        ])
        assert accuracy_strong > accuracy_weak

    def test_errors_have_higher_entropy_on_average(self, mobilenet_network, scene):
        from repro.core.heatmaps import dispersion_heatmaps

        probs = mobilenet_network.predict_probabilities(scene.labels, index=0)
        prediction = np.argmax(probs, axis=2)
        entropy = dispersion_heatmaps(probs)["E"]
        wrong = prediction != scene.labels
        if wrong.sum() > 10:
            assert entropy[wrong].mean() > entropy[~wrong].mean()

    def test_perfect_profile_reproduces_ground_truth(self, scene):
        profile = NetworkProfile(
            name="perfect",
            miss_rate=0.0,
            confusion_rate=0.0,
            hallucination_rate=0.0,
            boundary_jitter=0.0,
            logit_noise=0.0,
            smooth_sigma=0.0,
            uncertainty_blob_rate=0.0,
            confidence_field_amplitude=0.0,
            peak_correct=12.0,
        )
        network = SimulatedSegmentationNetwork(profile, random_state=0)
        prediction = network.predict_labels(scene.labels, index=0)
        assert pixel_accuracy(scene.labels, prediction) > 0.999

    def test_callable_interface(self, mobilenet_network, scene):
        probs = mobilenet_network(scene.labels, index=0)
        np.testing.assert_array_equal(
            probs, mobilenet_network.predict_probabilities(scene.labels, index=0)
        )

    def test_ignore_regions_still_predicted(self, mobilenet_network, scene_config):
        from repro.segmentation.scene import StreetSceneGenerator, SceneConfig

        config = SceneConfig(height=48, width=96, ignore_margin=4)
        scene = StreetSceneGenerator(config=config, random_state=1).generate(0)
        prediction = mobilenet_network.predict_labels(scene.labels, index=0)
        assert np.all(prediction >= 0)

    def test_n_classes_property(self, mobilenet_network, label_space):
        assert mobilenet_network.n_classes == label_space.n_classes

    def test_more_hallucinations_create_more_errors(self, scene):
        quiet = SimulatedSegmentationNetwork(
            mobilenetv2_profile().with_overrides(hallucination_rate=0.0), random_state=3
        )
        noisy = SimulatedSegmentationNetwork(
            mobilenetv2_profile().with_overrides(hallucination_rate=30.0), random_state=3
        )
        acc_quiet = pixel_accuracy(scene.labels, quiet.predict_labels(scene.labels, index=0))
        acc_noisy = pixel_accuracy(scene.labels, noisy.predict_labels(scene.labels, index=0))
        assert acc_noisy <= acc_quiet


class TestLabelRange:
    """Labels at or above C are rejected by name before anything is drawn."""

    def test_all_out_of_range_map_is_rejected(self, mobilenet_network):
        with pytest.raises(ValueError, match=r"label 25 .*C = 19"):
            mobilenet_network.predict_probabilities(np.full((16, 16), 25))

    def test_mixed_map_names_its_largest_label(self, mobilenet_network, scene):
        labels = scene.labels.copy()
        labels[3, 5] = 19
        labels[10:12, 40:44] = 23
        with pytest.raises(ValueError, match=r"label 23 .*C = 19"):
            mobilenet_network.predict_probabilities(labels)

    def test_largest_valid_label_is_accepted(self, mobilenet_network):
        labels = np.full((8, 12), 18)
        labels[:, :3] = -1
        probs = mobilenet_network.predict_probabilities(labels)
        assert probs.shape == (8, 12, 19)


def _pinned_frames():
    base = StreetSceneGenerator(SceneConfig(height=48, width=96), random_state=123)
    yield "mobilenetv2_48x96", mobilenetv2_profile(), 7, base.generate(0).labels, 0
    yield "xception65_48x96", xception65_profile(), 8, base.generate(1).labels, 3
    ignore = StreetSceneGenerator(SceneConfig(height=64, width=128, ignore_margin=4), random_state=5)
    yield "generic_64x128_ignore", generic_profile(), 11, ignore.generate(2).labels, 2
    bench = StreetSceneGenerator(SceneConfig(height=96, width=192), random_state=0)
    yield "mobilenetv2_96x192", mobilenetv2_profile(), 0, bench.generate(0).labels, 0
    yield "xception65_7x5", xception65_profile(), 3, base.generate(2).labels[20:27, 40:45], 1
    wide = np.tile(base.generate(3).labels[30:32], (1, 86))[:, :8200]
    yield "mobilenetv2_2x8200", mobilenetv2_profile(), 4, wide, 5


#: sha256 of the float64 softmax bytes of six frames, from the whole-array
#: implementation the tiled one replaced: every simulated report rests on
#: these bytes, so any change to the network's arithmetic or draw order
#: shows here by name.
PINNED_SHA256 = {
    "mobilenetv2_48x96": "f884ab0b694ada916af737b50a884449e3b799cbeffafd5ae0e9cf36a178965c",
    "xception65_48x96": "6aabcd56b864703ec3a7c834746f92f7c3167d32df8aaba531f4c08f3d1d4488",
    "generic_64x128_ignore": "b8766d190574f2abed02ab03842b5cab31ca311b483fda989bb8001140dba761",
    "mobilenetv2_96x192": "715d6dcf519207b6216d15cd501899816fda2b00f5333db4ec09b2e1a79a88b9",
    "xception65_7x5": "9dcc704b643ed980161f20aa5922417552136bb8b49d0cfc00a510edba12c3ae",
    "mobilenetv2_2x8200": "c0d8248ce59c8cb94fa007b32007d8231c297d7eb154e3211f97c6dd1a8d9426",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("frame", list(_pinned_frames()), ids=lambda frame: frame[0])
    def test_softmax_bytes_are_pinned(self, frame):
        name, profile, seed, labels, index = frame
        network = SimulatedSegmentationNetwork(profile, random_state=seed)
        probs = network.predict_probabilities(labels, index=index)
        assert probs.dtype == np.float64 and probs.flags.c_contiguous
        assert hashlib.sha256(probs.tobytes()).hexdigest() == PINNED_SHA256[name]


class TestNetworkMemory:
    def test_cityscapes_half_frame_peak_is_bounded(self):
        """One 512x1024 frame peaks at <= 240 bytes per pixel: the (H, W, C)
        float64 logits (152 B/px at C = 19), changed in place into the
        softmax, plus per-pixel maps and tile-sized buffers."""
        height, width = 512, 1024
        labels = StreetSceneGenerator(
            SceneConfig(height=height, width=width), random_state=0
        ).generate(0).labels
        network = SimulatedSegmentationNetwork(mobilenetv2_profile(), random_state=0)
        tracemalloc.start()
        try:
            probs = network.predict_probabilities(labels, index=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (height, width, 19)
        assert peak / (height * width) <= 240
