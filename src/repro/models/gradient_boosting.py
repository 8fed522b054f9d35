"""Gradient boosting on regression trees.

Section III of the paper uses gradient boosting for both meta tasks.  We
implement the standard formulation:

* **regression**: least-squares boosting (each tree fits the residuals);
* **binary classification**: boosting of the logistic loss; trees fit the
  negative gradient (residuals of the predicted probability), the prediction
  is the sigmoid of the accumulated raw scores.

Optional stochastic subsampling of rows per boosting round provides the usual
variance reduction and is also exercised by the ablation benchmarks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.base import ClassifierMixin, RegressorMixin, check_is_fitted
from repro.models.logistic import _sigmoid
from repro.models.tree import DecisionTreeRegressor
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import check_binary_labels, check_feature_matrix, check_vector


class _BaseGradientBoosting:
    """Shared fitting machinery for the boosting estimators."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        max_features=None,
        random_state: RandomState = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.subsample = float(subsample)
        self.max_features = max_features
        self.random_state = random_state
        self.estimators_: Optional[List[DecisionTreeRegressor]] = None
        self.initial_prediction_ = 0.0
        self.train_loss_: List[float] = []

    def _new_tree(self, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def _raw_predict(self, x: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        x = check_feature_matrix(x, allow_empty=True)
        raw = np.full(x.shape[0], self.initial_prediction_, dtype=np.float64)
        for tree in self.estimators_:
            raw += self.learning_rate * tree.predict(x)
        return raw

    def _fit_stages(self, x: np.ndarray, y: np.ndarray, negative_gradient, loss) -> None:
        rng = as_rng(self.random_state)
        n_samples = x.shape[0]
        raw = np.full(n_samples, self.initial_prediction_, dtype=np.float64)
        self.estimators_ = []
        self.train_loss_ = []
        for _ in range(self.n_estimators):
            residuals = negative_gradient(y, raw)
            if self.subsample < 1.0:
                size = max(2, int(round(self.subsample * n_samples)))
                idx = rng.choice(n_samples, size=size, replace=False)
            else:
                idx = np.arange(n_samples)
            tree = self._new_tree(seed=int(rng.integers(0, 2**31 - 1)))
            tree.fit(x[idx], residuals[idx])
            raw += self.learning_rate * tree.predict(x)
            self.estimators_.append(tree)
            self.train_loss_.append(loss(y, raw))

    # ------------------------------------------------------------------ ---
    def to_state(self) -> dict:
        """JSON-serialisable fitted state (bitwise-exact round-trip)."""
        check_is_fitted(self, "estimators_")
        from repro.models.state import serializable_seed

        try:
            seed = serializable_seed(self.random_state)
        except TypeError:
            seed = None
        return {
            "type": type(self).__name__,
            "params": {
                "n_estimators": self.n_estimators,
                "learning_rate": self.learning_rate,
                "max_depth": self.max_depth,
                "min_samples_leaf": self.min_samples_leaf,
                "subsample": self.subsample,
                "max_features": self.max_features,
                "random_state": seed,
            },
            "initial_prediction": self.initial_prediction_,
            "train_loss": list(self.train_loss_),
            "estimators": [tree.to_state() for tree in self.estimators_],
        }

    @classmethod
    def from_state(cls, state: dict):
        """Rebuild a fitted ensemble from its :meth:`to_state` form."""
        from repro.models.state import expect_state_type

        expect_state_type(state, cls)
        model = cls(**state["params"])
        model.initial_prediction_ = float(state["initial_prediction"])
        model.train_loss_ = [float(value) for value in state["train_loss"]]
        model.estimators_ = [
            DecisionTreeRegressor.from_state(tree_state)
            for tree_state in state["estimators"]
        ]
        return model


class GradientBoostingRegressor(_BaseGradientBoosting, RegressorMixin):
    """Least-squares gradient boosting for regression."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        """Fit the boosted ensemble to continuous targets."""
        x = check_feature_matrix(x)
        y = check_vector(y, n=x.shape[0])
        self.initial_prediction_ = float(y.mean())
        self._fit_stages(
            x,
            y,
            negative_gradient=lambda target, raw: target - raw,
            loss=lambda target, raw: float(np.mean((target - raw) ** 2)),
        )
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict continuous targets."""
        return self._raw_predict(x)


class GradientBoostingClassifier(_BaseGradientBoosting, ClassifierMixin):
    """Binary gradient boosting with the logistic loss."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        """Fit the boosted ensemble to binary 0/1 labels."""
        x = check_feature_matrix(x)
        y = check_binary_labels(y).astype(np.float64)
        if y.shape[0] != x.shape[0]:
            raise ValueError("X and y must have the same number of samples")
        positive_rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self.initial_prediction_ = float(np.log(positive_rate / (1 - positive_rate)))

        def _negative_gradient(target, raw):
            return target - _sigmoid(raw)

        def _loss(target, raw):
            p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
            return float(-np.mean(target * np.log(p) + (1 - target) * np.log(1 - p)))

        self._fit_stages(x, y, negative_gradient=_negative_gradient, loss=_loss)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Probability of the positive class."""
        return _sigmoid(self._raw_predict(x))

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(x) >= threshold).astype(np.int64)
