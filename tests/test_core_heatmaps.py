"""Tests for repro.core.heatmaps: closed forms and properties of the E, M and
V heatmaps, as the program computes them (``dispersion_heatmaps``, one tiled
sweep over the field)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heatmaps import dispersion_heatmaps


def entropy_heatmap(field):
    return dispersion_heatmaps(field)["E"]


def probability_margin_heatmap(field):
    return dispersion_heatmaps(field)["M"]


def variation_ratio_heatmap(field):
    return dispersion_heatmaps(field)["V"]


def _boundary_mask(labels):
    """Pixels with a 4-neighbour of another label, plus the image border."""
    mask = np.ones(labels.shape, dtype=bool)
    inner = mask[1:-1, 1:-1]
    centre = labels[1:-1, 1:-1]
    inner[:] = (
        (centre != labels[:-2, 1:-1]) | (centre != labels[2:, 1:-1])
        | (centre != labels[1:-1, :-2]) | (centre != labels[1:-1, 2:])
    )
    return mask


def _one_hot_field(height, width, n_classes, class_id=0):
    field = np.zeros((height, width, n_classes))
    field[..., class_id] = 1.0
    return field


def _uniform_field(height, width, n_classes):
    return np.full((height, width, n_classes), 1.0 / n_classes)


class TestEntropyHeatmap:
    def test_one_hot_has_zero_entropy(self):
        np.testing.assert_allclose(entropy_heatmap(_one_hot_field(3, 4, 5)), 0.0, atol=1e-9)

    def test_uniform_has_maximal_entropy(self):
        np.testing.assert_allclose(entropy_heatmap(_uniform_field(3, 4, 5)), 1.0, atol=1e-9)

    def test_range(self, probability_field):
        heatmap = entropy_heatmap(probability_field)
        assert heatmap.min() >= 0.0
        assert heatmap.max() <= 1.0

    def test_invalid_field_raises(self):
        with pytest.raises(ValueError):
            entropy_heatmap(np.ones((3, 3, 2)))


class TestVariationRatio:
    def test_one_hot_zero(self):
        np.testing.assert_allclose(variation_ratio_heatmap(_one_hot_field(2, 2, 4)), 0.0)

    def test_uniform_maximal(self):
        expected = 1.0 - 1.0 / 4
        np.testing.assert_allclose(variation_ratio_heatmap(_uniform_field(2, 2, 4)), expected)


class TestProbabilityMargin:
    def test_one_hot_zero(self):
        np.testing.assert_allclose(probability_margin_heatmap(_one_hot_field(2, 2, 4)), 0.0)

    def test_two_way_tie_is_one(self):
        field = np.zeros((1, 1, 4))
        field[0, 0, 0] = 0.5
        field[0, 0, 1] = 0.5
        np.testing.assert_allclose(probability_margin_heatmap(field), 1.0)

    def test_known_value(self):
        field = np.zeros((1, 1, 3))
        field[0, 0] = [0.7, 0.2, 0.1]
        np.testing.assert_allclose(probability_margin_heatmap(field), 1.0 - 0.5)


class TestDispersionHeatmaps:
    @pytest.mark.parametrize("n_classes", [2, 3, 8, 19, 129])
    def test_uniform_field_closed_form(self, n_classes):
        """A uniform field: E = 1, M = 1 and V = 1 - 1/C at every pixel."""
        maps = dispersion_heatmaps(_uniform_field(3, 5, n_classes))
        np.testing.assert_allclose(maps["E"], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(maps["M"], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(maps["V"], 1.0 - 1.0 / n_classes, rtol=0, atol=1e-12)

    def test_keys_and_shapes(self, probability_field):
        maps = dispersion_heatmaps(probability_field)
        assert set(maps) == {"E", "M", "V"}
        for heatmap in maps.values():
            assert heatmap.shape == probability_field.shape[:2]

    def test_boundaries_more_uncertain_than_interiors(self, probability_field, scene):
        entropy = entropy_heatmap(probability_field)
        boundary = _boundary_mask(scene.labels)
        assert entropy[boundary].mean() > entropy[~boundary].mean()


@given(
    n_classes=st.integers(2, 8),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=25, deadline=None)
def test_property_dispersion_measures_ordered(n_classes, seed):
    """V <= E-like relationships and all measures in [0, 1] for random fields."""
    rng = np.random.default_rng(seed)
    field = rng.uniform(size=(4, 5, n_classes))
    field = field / field.sum(axis=2, keepdims=True)
    entropy = entropy_heatmap(field)
    variation = variation_ratio_heatmap(field)
    margin = probability_margin_heatmap(field)
    for heatmap in (entropy, variation, margin):
        assert np.all((heatmap >= -1e-12) & (heatmap <= 1.0 + 1e-12))
    # The probability margin is always at least the variation ratio
    # (1 - p1 + p2 >= 1 - p1).
    assert np.all(margin >= variation - 1e-12)
