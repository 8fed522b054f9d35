"""Tests for repro.utils.validation."""

import re
import warnings

import numpy as np
import pytest

from repro.utils.validation import (
    check_binary_labels,
    check_feature_matrix,
    check_in_range,
    check_label_map,
    check_probability_field,
    check_same_shape,
    check_vector,
)


class TestCheckLabelMap:
    def test_accepts_integer_map(self):
        labels = np.zeros((4, 5), dtype=np.int32)
        out = check_label_map(labels)
        assert out.dtype == np.int64
        assert out.shape == (4, 5)

    def test_accepts_ignore_id(self):
        labels = np.full((3, 3), -1)
        assert check_label_map(labels).min() == -1

    def test_rejects_below_ignore(self):
        with pytest.raises(ValueError):
            check_label_map(np.full((3, 3), -2))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            check_label_map(np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            check_label_map(np.zeros((2, 2, 2), dtype=int))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_label_map(np.zeros((0, 3), dtype=int))

    def test_integral_floats_converted(self):
        labels = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert check_label_map(labels).dtype == np.int64

    def test_non_integral_floats_rejected(self):
        with pytest.raises(TypeError):
            check_label_map(np.array([[0.5, 1.0], [2.0, 3.0]]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, 1e30])
    def test_unrepresentable_floats_rejected_by_name(self, value):
        labels = np.array([[0.0, 1.0], [value, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"int64 range, found {value}")):
                check_label_map(labels)

    def test_nan_float_is_a_type_error(self):
        with pytest.raises(TypeError):
            check_label_map(np.array([[0.0, np.nan], [2.0, 3.0]]))


class TestCheckProbabilityField:
    def test_valid_field_passes(self):
        probs = np.full((2, 3, 4), 0.25)
        out = check_probability_field(probs)
        assert out.shape == (2, 3, 4)

    def test_rejects_unnormalised(self):
        probs = np.full((2, 2, 3), 0.5)
        with pytest.raises(ValueError):
            check_probability_field(probs)

    def test_rejects_negative(self):
        probs = np.full((2, 2, 2), 0.5)
        probs[0, 0, 0] = -0.5
        probs[0, 0, 1] = 1.5
        with pytest.raises(ValueError):
            check_probability_field(probs)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            check_probability_field(np.ones((2, 2, 1)))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            check_probability_field(np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (0, 0, 2)])
    def test_rejects_empty_field_by_name(self, shape):
        with pytest.raises(ValueError, match="^probs must be non-empty$"):
            check_probability_field(np.zeros(shape, dtype=np.float32))


class TestCheckSameShape:
    def test_matching_passes(self):
        check_same_shape(np.zeros((3, 4)), np.zeros((3, 4, 7)))

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            check_same_shape(np.zeros((3, 4)), np.zeros((4, 3)))


class TestCheckInRange:
    def test_inside_passes(self):
        assert check_in_range(0.5, 0.0, 1.0) == 0.5

    def test_boundaries_inclusive_by_default(self):
        assert check_in_range(0.0, 0.0, 1.0) == 0.0
        assert check_in_range(1.0, 0.0, 1.0) == 1.0

    def test_exclusive_boundaries(self):
        with pytest.raises(ValueError):
            check_in_range(0.0, 0.0, 1.0, inclusive=(False, True))

    def test_exclusive_upper_boundary(self):
        assert check_in_range(0.999, 0.0, 1.0, inclusive=(True, False)) == 0.999
        with pytest.raises(ValueError, match="rate must be < 1.0, got 1.0"):
            check_in_range(1.0, 0.0, 1.0, name="rate", inclusive=(True, False))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_in_range(2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range(-1.0, 0.0, 1.0)


class TestCheckFeatureMatrix:
    def test_promotes_1d(self):
        assert check_feature_matrix(np.arange(5.0)).shape == (5, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_feature_matrix(np.zeros((0, 3)))

    def test_rejects_more_than_two_dims(self):
        with pytest.raises(ValueError, match=r"X must be 2-D .* got \(2, 2, 2\)"):
            check_feature_matrix(np.zeros((2, 2, 2)))

    def test_allow_empty(self):
        assert check_feature_matrix(np.zeros((0, 3)), allow_empty=True).shape == (0, 3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_feature_matrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_feature_matrix(np.array([[1.0, np.inf]]))


class TestCheckVector:
    def test_flattens(self):
        assert check_vector(np.zeros((3, 1))).shape == (3,)

    def test_length_check(self):
        with pytest.raises(ValueError):
            check_vector(np.zeros(3), n=4)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_vector(np.array([1.0, np.nan]))


class TestCheckBinaryLabels:
    def test_accepts_binary(self):
        out = check_binary_labels(np.array([0, 1, 1, 0]))
        assert out.dtype == np.int64

    def test_accepts_single_class(self):
        assert check_binary_labels(np.array([1, 1])).tolist() == [1, 1]

    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            check_binary_labels(np.array([0, 2]))
