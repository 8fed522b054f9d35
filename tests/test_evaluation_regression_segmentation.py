"""Tests for repro.evaluation.regression and repro.evaluation.segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.regression import (
    pearson_correlation,
    r2_score,
    residual_std,
)
from repro.evaluation.segmentation import pixel_accuracy


class TestR2:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, y.mean())
        assert abs(r2_score(y, pred)) < 1e-12

    def test_worse_than_mean_is_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.array([3.0, 1.0, -2.0])
        assert r2_score(y, pred) < 0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            r2_score(np.array([1.0]), np.array([1.0]))

    def test_constant_target_scores_one_only_when_exact(self):
        y = np.full(4, 0.25)
        assert r2_score(y, y.copy()) == 1.0
        assert r2_score(y, y + 1e-9) == 0.0


class TestResidualStd:
    def test_zero_for_perfect(self):
        y = np.array([0.2, 0.6, 0.9])
        assert residual_std(y, y) == 0.0

    def test_constant_offset(self):
        y = np.zeros(10)
        pred = np.full(10, 0.5)
        assert abs(residual_std(y, pred) - 0.5) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one sample"):
            residual_std(np.array([]), np.array([]))


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert abs(pearson_correlation(x, 2 * x + 1) - 1.0) < 1e-12

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert abs(pearson_correlation(x, -x) + 1.0) < 1e-12

    def test_constant_input_returns_zero(self):
        assert pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least two samples"):
            pearson_correlation(np.array([1.0]), np.array([2.0]))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        assert abs(pearson_correlation(x, y) - pearson_correlation(y, x)) < 1e-12

    @given(scale=st.floats(0.1, 10), offset=st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_property_invariant_to_affine_transform(self, scale, offset):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        a = pearson_correlation(x, y)
        b = pearson_correlation(scale * x + offset, y)
        assert abs(a - b) < 1e-9


class TestPixelAccuracy:
    def test_perfect(self):
        labels = np.array([[0, 1], [2, 3]])
        assert pixel_accuracy(labels, labels) == 1.0

    def test_ignore_pixels_excluded(self):
        gt = np.array([[0, -1], [1, -1]])
        pred = np.array([[0, 5], [0, 5]])
        assert pixel_accuracy(gt, pred) == 0.5

    def test_custom_ignore_id(self):
        gt = np.array([[0, 1], [1, 2]])
        pred = np.array([[1, 1], [0, 2]])
        assert pixel_accuracy(gt, pred, ignore_id=0) == pytest.approx(2 / 3)

    def test_all_ignored_raises(self):
        gt = np.full((2, 2), -1)
        with pytest.raises(ValueError):
            pixel_accuracy(gt, np.zeros((2, 2), dtype=int))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pixel_accuracy(np.zeros((2, 2), dtype=int), np.zeros((3, 2), dtype=int))
