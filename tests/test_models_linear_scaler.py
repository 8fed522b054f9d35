"""Tests for repro.models.scaler and repro.models.linear."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import NotFittedError
from repro.models.linear import LinearRegression
from repro.models.scaler import StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        x = rng.normal(5.0, 3.0, size=(200, 4))
        z = StandardScaler().fit(x).transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_not_divided_by_zero(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = StandardScaler().fit(x).transform(x)
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(z[:, 0], 0.0)

    def test_inverse_transform_roundtrip(self, rng):
        x = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(x)
        # The fitted mean and scale undo the transform.
        np.testing.assert_allclose(scaler.transform(x) * scaler.scale_ + scaler.mean_, x)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((3, 2)))

    def test_feature_count_mismatch(self, rng):
        scaler = StandardScaler().fit(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError):
            scaler.transform(rng.normal(size=(5, 4)))

    def test_without_mean_or_std(self, rng):
        x = rng.normal(2.0, 4.0, size=(100, 2))
        z = StandardScaler(with_mean=False, with_std=False).fit(x).transform(x)
        np.testing.assert_allclose(z, x)


class TestLinearRegression:
    def test_recovers_exact_linear_relation(self, rng):
        x = rng.normal(size=(100, 3))
        coef = np.array([2.0, -1.0, 0.5])
        y = x @ coef + 3.0
        model = LinearRegression().fit(x, y)
        np.testing.assert_allclose(model.coef_, coef, atol=1e-8)
        assert abs(model.intercept_ - 3.0) < 1e-8
        np.testing.assert_allclose(model.predict(x), y, atol=1e-8)

    def test_r2_score_perfect_fit(self, rng):
        x = rng.normal(size=(50, 2))
        y = x[:, 0] * 2
        model = LinearRegression().fit(x, y)
        assert model.score(x, y) > 0.999999

    def test_no_intercept(self, rng):
        x = rng.normal(size=(80, 2))
        y = x @ np.array([1.0, 2.0])
        model = LinearRegression(fit_intercept=False).fit(x, y)
        assert model.intercept_ == 0.0
        np.testing.assert_allclose(model.coef_, [1.0, 2.0], atol=1e-8)

    def test_ridge_shrinks_coefficients(self, rng):
        x = rng.normal(size=(60, 4))
        y = x @ np.array([5.0, -3.0, 2.0, 1.0]) + rng.normal(0, 0.1, 60)
        ols = LinearRegression(alpha=0.0).fit(x, y)
        ridge = LinearRegression(alpha=100.0).fit(x, y)
        assert np.linalg.norm(ridge.coef_) < np.linalg.norm(ols.coef_)

    def test_clipping(self, rng):
        x = rng.normal(size=(40, 1))
        y = 10 * x[:, 0]
        model = LinearRegression(clip_range=(0.0, 1.0)).fit(x, y)
        pred = model.predict(x)
        assert pred.min() >= 0.0 and pred.max() <= 1.0

    def test_negative_alpha_raises(self):
        with pytest.raises(ValueError):
            LinearRegression(alpha=-1.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.zeros((2, 2)))

    def test_feature_mismatch_raises(self, rng):
        model = LinearRegression().fit(rng.normal(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(ValueError):
            model.predict(rng.normal(size=(5, 3)))

    def test_collinear_features_handled(self, rng):
        base = rng.normal(size=(50, 1))
        x = np.hstack([base, base])  # perfectly collinear
        y = base[:, 0] * 3
        model = LinearRegression().fit(x, y)
        assert np.all(np.isfinite(model.predict(x)))

    @given(
        intercept=st.floats(-5, 5),
        slope=st.floats(-5, 5),
        n=st.integers(10, 80),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_one_dimensional_exact_fit(self, intercept, slope, n):
        x = np.linspace(-1, 1, n).reshape(-1, 1)
        y = slope * x[:, 0] + intercept
        model = LinearRegression().fit(x, y)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-6)
