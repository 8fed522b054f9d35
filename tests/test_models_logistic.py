"""Tests for repro.models.logistic."""

import numpy as np
import pytest

from repro.models.logistic import LogisticRegression, _sigmoid


def _separable_data(rng, n=200):
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
    return x, y


class TestSigmoid:
    def test_range(self):
        z = np.linspace(-50, 50, 101)
        s = _sigmoid(z)
        assert np.all((s >= 0) & (s <= 1))

    def test_symmetry(self):
        z = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        np.testing.assert_allclose(_sigmoid(z) + _sigmoid(-z), 1.0)

    def test_no_overflow_for_large_inputs(self):
        assert np.isfinite(_sigmoid(np.array([1000.0, -1000.0]))).all()


class TestLogisticRegression:
    def test_learns_separable_problem(self, rng):
        x, y = _separable_data(rng)
        model = LogisticRegression(max_iter=300).fit(x, y)
        assert model.score(x, y) > 0.95

    def test_probabilities_in_range(self, rng):
        x, y = _separable_data(rng)
        model = LogisticRegression().fit(x, y)
        p = model.predict_proba(x)
        assert np.all((p >= 0) & (p <= 1))

    def test_probability_monotone_in_decision_function(self, rng):
        x, y = _separable_data(rng)
        model = LogisticRegression().fit(x, y)
        scores = model.decision_function(x)
        probs = model.predict_proba(x)
        order = np.argsort(scores)
        assert np.all(np.diff(probs[order]) >= -1e-12)

    def test_penalty_shrinks_weights(self, rng):
        x, y = _separable_data(rng, n=300)
        free = LogisticRegression(penalty=0.0, max_iter=400).fit(x, y)
        penalised = LogisticRegression(penalty=50.0, max_iter=400).fit(x, y)
        assert np.linalg.norm(penalised.coef_) < np.linalg.norm(free.coef_)

    def test_balanced_class_weight_runs(self, rng):
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] > 1.0).astype(int)  # heavily imbalanced
        if y.sum() == 0:
            y[0] = 1
        model = LogisticRegression(class_weight="balanced").fit(x, y)
        assert model.predict_proba(x).shape == (200,)

    def test_threshold_changes_predictions(self, rng):
        x, y = _separable_data(rng)
        model = LogisticRegression().fit(x, y)
        strict = model.predict(x, threshold=0.9).sum()
        lax = model.predict(x, threshold=0.1).sum()
        assert lax >= strict

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LogisticRegression(penalty=-1.0)
        with pytest.raises(ValueError):
            LogisticRegression(max_iter=0)
        with pytest.raises(ValueError):
            LogisticRegression(class_weight="weird")

    def test_requires_binary_labels(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            LogisticRegression().fit(x, np.arange(10))

    def test_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            LogisticRegression().fit(rng.normal(size=(10, 2)), np.zeros(9, dtype=int))

    def test_predict_before_fit(self):
        with pytest.raises(Exception):
            LogisticRegression().predict_proba(np.zeros((2, 2)))

    def test_feature_mismatch_on_predict(self, rng):
        x, y = _separable_data(rng)
        model = LogisticRegression().fit(x, y)
        with pytest.raises(ValueError):
            model.predict_proba(rng.normal(size=(3, 5)))

    def test_deterministic(self, rng):
        x, y = _separable_data(rng)
        a = LogisticRegression().fit(x, y).predict_proba(x)
        b = LogisticRegression().fit(x, y).predict_proba(x)
        np.testing.assert_allclose(a, b)

    def test_n_iter_counts_newton_steps(self, rng):
        # The gradient vanishes at the zero start: no step is taken.
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        model = LogisticRegression().fit(x, np.array([1, 1, 0, 0]))
        assert model.n_iter_ == 0 and model.converged_
        x, y = _separable_data(rng)
        capped = LogisticRegression(max_iter=2).fit(x, y)
        assert capped.n_iter_ == 2 and not capped.converged_
        assert LogisticRegression().fit(x, y).converged_

    def test_separable_unpenalised_fit_is_finite(self, rng):
        x, y = _separable_data(rng)
        model = LogisticRegression(penalty=0.0).fit(x, y)
        assert model.converged_ and np.all(np.isfinite(model.coef_))
        assert model.score(x, y) == 1.0

    def test_state_round_trip_keeps_convergence(self, rng):
        x, y = _separable_data(rng)
        model = LogisticRegression(penalty=1.0).fit(x, y)
        restored = LogisticRegression.from_state(model.to_state())
        assert (restored.n_iter_, restored.converged_) == (model.n_iter_, True)
        np.testing.assert_array_equal(restored.coef_, model.coef_)

    def test_stale_gradient_descent_state_is_refused(self, rng):
        x, y = _separable_data(rng)
        state = LogisticRegression().fit(x, y).to_state()
        state["params"]["learning_rate"] = 1.0
        del state["converged"]
        with pytest.raises(ValueError, match="stale LogisticRegression state"):
            LogisticRegression.from_state(state)
