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
from repro.evaluation.segmentation import (
    accumulate_confusion,
    class_iou,
    iou_from_confusion,
    mean_iou,
    pixel_accuracy,
)


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


class TestResidualStd:
    def test_zero_for_perfect(self):
        y = np.array([0.2, 0.6, 0.9])
        assert residual_std(y, y) == 0.0

    def test_constant_offset(self):
        y = np.zeros(10)
        pred = np.full(10, 0.5)
        assert abs(residual_std(y, pred) - 0.5) < 1e-12


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert abs(pearson_correlation(x, 2 * x + 1) - 1.0) < 1e-12

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert abs(pearson_correlation(x, -x) + 1.0) < 1e-12

    def test_constant_input_returns_zero(self):
        assert pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

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

    def test_all_ignored_raises(self):
        gt = np.full((2, 2), -1)
        with pytest.raises(ValueError):
            pixel_accuracy(gt, np.zeros((2, 2), dtype=int))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pixel_accuracy(np.zeros((2, 2), dtype=int), np.zeros((3, 2), dtype=int))


class TestClassIoU:
    def test_perfect_iou(self):
        labels = np.array([[0, 0, 1, 1]])
        per_class = class_iou(labels, labels, n_classes=2)
        assert per_class == {0: 1.0, 1: 1.0}

    def test_half_overlap(self):
        gt = np.array([[1, 1, 0, 0]])
        pred = np.array([[1, 0, 0, 0]])
        per_class = class_iou(gt, pred, n_classes=2)
        assert abs(per_class[1] - 0.5) < 1e-12

    def test_absent_class_omitted(self):
        labels = np.zeros((2, 2), dtype=int)
        per_class = class_iou(labels, labels, n_classes=5)
        assert set(per_class) == {0}

    def test_mean_iou(self):
        gt = np.array([[1, 1, 0, 0]])
        pred = np.array([[1, 1, 0, 1]])
        value = mean_iou(gt, pred, n_classes=2)
        assert 0.0 < value < 1.0


class TestConfusionAccumulation:
    def test_accumulation_matches_direct_iou(self):
        rng = np.random.default_rng(2)
        gt1 = rng.integers(0, 3, size=(10, 10))
        pred1 = rng.integers(0, 3, size=(10, 10))
        gt2 = rng.integers(0, 3, size=(10, 10))
        pred2 = rng.integers(0, 3, size=(10, 10))
        confusion = accumulate_confusion(gt1, pred1, n_classes=3)
        confusion = accumulate_confusion(gt2, pred2, n_classes=3, confusion=confusion)
        combined_gt = np.concatenate([gt1, gt2], axis=0)
        combined_pred = np.concatenate([pred1, pred2], axis=0)
        direct = class_iou(combined_gt, combined_pred, n_classes=3)
        from_confusion = iou_from_confusion(confusion)
        for class_id, value in direct.items():
            assert abs(from_confusion[class_id] - value) < 1e-12

    def test_wrong_confusion_shape_raises(self):
        with pytest.raises(ValueError):
            accumulate_confusion(
                np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int),
                n_classes=3, confusion=np.zeros((2, 2), dtype=np.int64),
            )

    def test_iou_from_non_square_raises(self):
        with pytest.raises(ValueError):
            iou_from_confusion(np.zeros((2, 3)))
