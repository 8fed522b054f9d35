"""Shared fixtures for the test suite.

Expensive objects (generated scenes, network inference, extracted metric
datasets) are session-scoped so the several hundred tests stay fast; every
fixture uses fixed seeds so failures are reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import SegmentMetricsExtractor
from repro.core.pipeline import MetaSegPipeline
from repro.segmentation.datasets import CityscapesLikeDataset, KittiLikeDataset
from repro.segmentation.labels import cityscapes_label_space
from repro.segmentation.network import (
    SimulatedSegmentationNetwork,
    mobilenetv2_profile,
    xception65_profile,
)
from repro.segmentation.scene import SceneConfig, StreetSceneGenerator
from repro.segmentation.sequence import SequenceConfig

#: Small spatial size used throughout the tests to keep them fast.
TEST_HEIGHT = 48
TEST_WIDTH = 96


@pytest.fixture(scope="session")
def label_space():
    """The Cityscapes-like 19-class label space."""
    return cityscapes_label_space()


@pytest.fixture(scope="session")
def scene_config():
    """A small scene configuration shared by most tests."""
    return SceneConfig(height=TEST_HEIGHT, width=TEST_WIDTH)


@pytest.fixture(scope="session")
def scene_generator(scene_config):
    """A deterministic street-scene generator."""
    return StreetSceneGenerator(config=scene_config, random_state=123)


@pytest.fixture(scope="session")
def scene(scene_generator):
    """One generated street scene."""
    return scene_generator.generate(0)


@pytest.fixture(scope="session")
def scenes(scene_generator):
    """Eight generated street scenes."""
    return [scene_generator.generate(index) for index in range(8)]


@pytest.fixture(scope="session")
def mobilenet_network(label_space):
    """Simulated weaker network (MobilenetV2-like profile)."""
    return SimulatedSegmentationNetwork(
        mobilenetv2_profile(), label_space=label_space, random_state=7
    )


@pytest.fixture(scope="session")
def xception_network(label_space):
    """Simulated stronger network (Xception65-like profile)."""
    return SimulatedSegmentationNetwork(
        xception65_profile(), label_space=label_space, random_state=8
    )


@pytest.fixture(scope="session")
def probability_field(mobilenet_network, scene):
    """Softmax field of the weaker network on the shared scene."""
    return mobilenet_network.predict_probabilities(scene.labels, index=0)


@pytest.fixture(scope="session")
def extractor(label_space):
    """Segment metrics extractor."""
    return SegmentMetricsExtractor(label_space=label_space)


@pytest.fixture(scope="session")
def image_metrics(extractor, probability_field, scene):
    """Full extraction result (dataset + segmentations) for the shared scene."""
    return extractor.extract_full(probability_field, gt_labels=scene.labels, image_id="shared")


@pytest.fixture(scope="session")
def metrics_dataset(extractor, mobilenet_network, scenes):
    """Metric dataset pooled over eight scenes (with IoU targets)."""
    parts = []
    for index, scene in enumerate(scenes):
        probs = mobilenet_network.predict_probabilities(scene.labels, index=index)
        parts.append(extractor.extract(probs, gt_labels=scene.labels, image_id=f"img{index}"))
    from repro.core.dataset import MetricsDataset

    return MetricsDataset.concatenate(parts)


@pytest.fixture(scope="session")
def cityscapes_like(scene_config):
    """A small Cityscapes-like dataset with train and val splits."""
    return CityscapesLikeDataset(
        n_train=6, n_val=4, scene_config=scene_config, random_state=11
    )


@pytest.fixture(scope="session")
def kitti_like(scene_config):
    """A small KITTI-like video dataset with sparse ground truth."""
    return KittiLikeDataset(
        n_sequences=2,
        sequence_config=SequenceConfig(n_frames=6, scene_config=scene_config),
        labeled_stride=2,
        random_state=13,
    )


@pytest.fixture(scope="session")
def metaseg_pipeline(mobilenet_network, label_space):
    """MetaSeg pipeline bound to the weaker network."""
    return MetaSegPipeline(mobilenet_network, label_space=label_space)


@pytest.fixture
def rng():
    """A fresh deterministic random generator for individual tests."""
    return np.random.default_rng(99)
