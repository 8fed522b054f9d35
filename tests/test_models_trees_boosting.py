"""Tests for repro.models.tree and repro.models.gradient_boosting."""

import numpy as np
import pytest

from repro.models.gradient_boosting import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
)
from repro.models.tree import DecisionTreeRegressor


def _step_data(rng, n=200):
    x = rng.uniform(-1, 1, size=(n, 2))
    y = np.where(x[:, 0] > 0, 2.0, -1.0) + 0.01 * rng.normal(size=n)
    return x, y



def _n_leaves(tree) -> int:
    """Leaves of a fitted tree, counted from its root."""
    stack, leaves = [tree.root_], 0
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves += 1
        else:
            stack.extend((node.left, node.right))
    return leaves

class TestDecisionTreeRegressor:
    def test_fits_step_function(self, rng):
        x, y = _step_data(rng)
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        assert tree.score(x, y) > 0.95

    def test_depth_zero_predicts_mean(self, rng):
        x, y = _step_data(rng)
        tree = DecisionTreeRegressor(max_depth=0).fit(x, y)
        np.testing.assert_allclose(tree.predict(x), y.mean())
        assert _n_leaves(tree) == 1

    def test_depth_bounded(self, rng):
        x = rng.uniform(size=(300, 3))
        y = rng.normal(size=300)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf_respected(self, rng):
        x, y = _step_data(rng, n=30)
        tree = DecisionTreeRegressor(max_depth=8, min_samples_leaf=10).fit(x, y)
        # With 30 samples and a 10-sample leaf minimum there can be at most 3 leaves.
        assert _n_leaves(tree) <= 3

    def test_constant_target_single_leaf(self):
        x = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 7.0)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        assert _n_leaves(tree) == 1
        np.testing.assert_allclose(tree.predict(x), 7.0)

    def test_max_features_subsampling_still_fits(self, rng):
        x, y = _step_data(rng)
        tree = DecisionTreeRegressor(max_depth=3, max_features="sqrt", random_state=0).fit(x, y)
        assert np.isfinite(tree.predict(x)).all()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=-1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features="log2")
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=1.5)

    def test_feature_mismatch_on_predict(self, rng):
        x, y = _step_data(rng)
        tree = DecisionTreeRegressor().fit(x, y)
        with pytest.raises(ValueError):
            tree.predict(rng.normal(size=(3, 5)))


class TestGradientBoostingRegressor:
    def test_improves_over_single_tree(self, rng):
        x = rng.uniform(-2, 2, size=(300, 2))
        y = np.sin(2 * x[:, 0]) + 0.3 * x[:, 1] ** 2
        tree_score = DecisionTreeRegressor(max_depth=2).fit(x, y).score(x, y)
        boosted = GradientBoostingRegressor(n_estimators=80, max_depth=2, random_state=0).fit(x, y)
        assert boosted.score(x, y) > tree_score

    def test_training_loss_decreases(self, rng):
        x, y = _step_data(rng)
        model = GradientBoostingRegressor(n_estimators=30, random_state=0).fit(x, y)
        assert model.train_loss_[-1] < model.train_loss_[0]

    def test_subsample_runs(self, rng):
        x, y = _step_data(rng)
        model = GradientBoostingRegressor(n_estimators=10, subsample=0.5, random_state=0).fit(x, y)
        assert np.isfinite(model.predict(x)).all()

    def test_deterministic_given_seed(self, rng):
        x, y = _step_data(rng)
        a = GradientBoostingRegressor(n_estimators=15, random_state=5).fit(x, y).predict(x)
        b = GradientBoostingRegressor(n_estimators=15, random_state=5).fit(x, y).predict(x)
        np.testing.assert_allclose(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)


class TestGradientBoostingClassifier:
    def test_learns_nonlinear_boundary(self, rng):
        x = rng.uniform(-1, 1, size=(400, 2))
        y = ((x[:, 0] ** 2 + x[:, 1] ** 2) < 0.5).astype(int)
        model = GradientBoostingClassifier(n_estimators=60, max_depth=2, random_state=0).fit(x, y)
        assert model.score(x, y) > 0.9

    def test_probabilities_in_range(self, rng):
        x = rng.normal(size=(100, 3))
        y = (x[:, 0] > 0).astype(int)
        model = GradientBoostingClassifier(n_estimators=20, random_state=0).fit(x, y)
        p = model.predict_proba(x)
        assert np.all((p >= 0) & (p <= 1))

    def test_initial_prediction_matches_base_rate(self, rng):
        x = rng.normal(size=(200, 2))
        y = (rng.uniform(size=200) < 0.25).astype(int)
        if y.sum() == 0:
            y[:3] = 1
        model = GradientBoostingClassifier(n_estimators=1, random_state=0).fit(x, y)
        base_rate = y.mean()
        implied = 1.0 / (1.0 + np.exp(-model.initial_prediction_))
        assert abs(implied - base_rate) < 1e-9

    def test_requires_binary_labels(self, rng):
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(rng.normal(size=(10, 2)), np.arange(10))

    def test_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(rng.normal(size=(10, 2)), np.zeros(9, dtype=int))

    def test_threshold_monotonicity(self, rng):
        x = rng.normal(size=(150, 2))
        y = (x[:, 0] > 0).astype(int)
        model = GradientBoostingClassifier(n_estimators=20, random_state=0).fit(x, y)
        assert model.predict(x, threshold=0.1).sum() >= model.predict(x, threshold=0.9).sum()
