"""Tests for repro.segmentation.network."""

import numpy as np
import pytest

from repro.evaluation.segmentation import pixel_accuracy
from repro.segmentation.network import (
    NetworkProfile,
    SimulatedSegmentationNetwork,
    mobilenetv2_profile,
    xception65_profile,
)


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
