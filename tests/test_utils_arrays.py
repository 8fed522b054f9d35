"""Tests for repro.utils.arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.arrays import (
    mean_std,
    renormalise_probabilities,
    resize_bilinear,
    resize_nearest,
)


class TestMeanStd:
    def test_matches_numpy_population_std(self):
        values = [0.1, 0.4, 0.4, 0.9]
        mean, std = mean_std(values)
        assert mean == pytest.approx(np.mean(values))
        assert std == pytest.approx(np.std(values, ddof=0))

    def test_accepts_arrays_and_returns_floats(self):
        mean, std = mean_std(np.array([1.0, 3.0]))
        assert isinstance(mean, float) and isinstance(std, float)
        assert (mean, std) == (2.0, 1.0)

    def test_single_value_has_zero_std(self):
        assert mean_std([0.5]) == (0.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            mean_std([])


class TestResize:
    def test_nearest_identity(self):
        array = np.arange(12).reshape(3, 4)
        np.testing.assert_array_equal(resize_nearest(array, 3, 4), array)

    def test_nearest_upscale_shape(self):
        assert resize_nearest(np.zeros((3, 4)), 6, 8).shape == (6, 8)

    def test_bilinear_constant_field_preserved(self):
        array = np.full((4, 5), 3.25)
        out = resize_bilinear(array, 9, 11)
        np.testing.assert_allclose(out, 3.25)

    def test_bilinear_3d(self):
        array = np.random.default_rng(0).uniform(size=(4, 4, 2))
        out = resize_bilinear(array, 8, 8)
        assert out.shape == (8, 8, 2)

    def test_bilinear_range_preserved(self):
        array = np.random.default_rng(1).uniform(size=(6, 6))
        out = resize_bilinear(array, 13, 7)
        assert out.min() >= array.min() - 1e-12
        assert out.max() <= array.max() + 1e-12

    def test_invalid_target_raises(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((3, 3)), 0, 3)
        with pytest.raises(ValueError):
            resize_nearest(np.zeros((3, 3)), 3, 0)


class TestRenormalise:
    def test_rows_sum_to_one(self):
        field = np.random.default_rng(2).uniform(size=(5, 5, 7))
        out = renormalise_probabilities(field)
        np.testing.assert_allclose(out.sum(axis=2), 1.0)

    def test_negative_values_clipped(self):
        field = np.array([[[-1.0, 2.0]]])
        out = renormalise_probabilities(field)
        assert out[0, 0, 0] == 0.0
        assert out[0, 0, 1] == 1.0

    def test_all_zero_pixel_stays_finite(self):
        field = np.zeros((1, 1, 3))
        out = renormalise_probabilities(field)
        assert np.all(np.isfinite(out))


@given(
    height=st.integers(min_value=1, max_value=12),
    width=st.integers(min_value=1, max_value=12),
    target_h=st.integers(min_value=1, max_value=24),
    target_w=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=30, deadline=None)
def test_property_resize_nearest_values_come_from_source(height, width, target_h, target_w):
    rng = np.random.default_rng(height * 100 + width)
    array = rng.integers(0, 5, size=(height, width))
    out = resize_nearest(array, target_h, target_w)
    assert out.shape == (target_h, target_w)
    assert set(np.unique(out)).issubset(set(np.unique(array)))
