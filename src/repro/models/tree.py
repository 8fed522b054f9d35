"""CART regression trees (the weak learners for gradient boosting).

A compact, vectorised implementation: at every node the best axis-aligned
split is found by scanning candidate thresholds per feature (midpoints of
sorted unique values, subsampled to at most ``max_candidate_thresholds``),
minimising the summed squared error of the two children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.models.base import RegressorMixin, check_is_fitted
from repro.utils.rng import as_rng
from repro.utils.validation import check_feature_matrix, check_vector


@dataclass
class _Node:
    """Binary tree node; leaves carry a constant prediction value."""

    value: float
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTreeRegressor(RegressorMixin):
    """Least-squares regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (a depth of 0 yields a single leaf).
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child after a split.
    max_candidate_thresholds:
        Upper bound on the number of thresholds examined per feature;
        quantile subsampling is used above this bound.
    max_features:
        Number of features examined per split: ``None`` (all), an int, a
        float fraction in (0, 1], or ``"sqrt"``.  Random feature subsampling
        is the standard variance-reduction/speed-up used by boosted trees on
        wide feature matrices (e.g. the time-series metrics of Section III).
    random_state:
        Seed for the feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_candidate_thresholds: int = 32,
        max_features=None,
        random_state=None,
    ) -> None:
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_candidate_thresholds < 1:
            raise ValueError("max_candidate_thresholds must be >= 1")
        if isinstance(max_features, str) and max_features != "sqrt":
            raise ValueError("max_features string form must be 'sqrt'")
        if isinstance(max_features, (int, np.integer)) and not isinstance(max_features, bool):
            if max_features < 1:
                raise ValueError("integer max_features must be >= 1")
        if isinstance(max_features, float) and not 0.0 < max_features <= 1.0:
            raise ValueError("float max_features must be in (0, 1]")
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_candidate_thresholds = int(max_candidate_thresholds)
        self.max_features = max_features
        self.random_state = random_state
        self.root_ = None
        self.n_features_ = None

    # ------------------------------------------------------------------ ---
    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree greedily on the training data."""
        x = check_feature_matrix(x)
        y = check_vector(y, n=x.shape[0])
        self.n_features_ = x.shape[1]
        self._rng = as_rng(self.random_state)
        self.root_ = self._grow(x, y, depth=0)
        return self

    def _n_split_features(self) -> int:
        """Number of features considered per split."""
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, float):
            return max(1, int(round(self.max_features * self.n_features_)))
        return min(self.n_features_, int(self.max_features))

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node_value = float(y.mean())
        if (
            depth >= self.max_depth
            or y.shape[0] < self.min_samples_split
            or np.allclose(y, y[0])
        ):
            return _Node(value=node_value)
        feature, threshold = self._best_split(x, y)
        if feature is None:
            return _Node(value=node_value)
        mask = x[:, feature] <= threshold
        left = self._grow(x[mask], y[mask], depth + 1)
        right = self._grow(x[~mask], y[~mask], depth + 1)
        return _Node(value=node_value, feature=feature, threshold=threshold, left=left, right=right)

    def _best_split(self, x: np.ndarray, y: np.ndarray):
        """Return (feature, threshold) minimising child SSE, or (None, None)."""
        n_samples, n_features = x.shape
        best_score = np.inf
        best = (None, None)
        n_split_features = self._n_split_features()
        if n_split_features < n_features:
            candidate_features = self._rng.choice(n_features, size=n_split_features, replace=False)
        else:
            candidate_features = np.arange(n_features)
        for feature in candidate_features:
            column = x[:, feature]
            thresholds = self._candidate_thresholds(column)
            if thresholds.size == 0:
                continue
            # Vectorised evaluation of all thresholds for this feature.
            below = column.reshape(-1, 1) <= thresholds.reshape(1, -1)
            counts_left = below.sum(axis=0)
            counts_right = n_samples - counts_left
            valid = (counts_left >= self.min_samples_leaf) & (counts_right >= self.min_samples_leaf)
            if not np.any(valid):
                continue
            sums_left = (below * y.reshape(-1, 1)).sum(axis=0)
            sums_sq_left = (below * (y ** 2).reshape(-1, 1)).sum(axis=0)
            total_sum = float(y.sum())
            total_sq = float((y ** 2).sum())
            sums_right = total_sum - sums_left
            sums_sq_right = total_sq - sums_sq_left
            with np.errstate(divide="ignore", invalid="ignore"):
                sse_left = sums_sq_left - np.where(counts_left > 0, sums_left**2 / counts_left, 0.0)
                sse_right = sums_sq_right - np.where(counts_right > 0, sums_right**2 / counts_right, 0.0)
            scores = np.where(valid, sse_left + sse_right, np.inf)
            idx = int(np.argmin(scores))
            if scores[idx] < best_score:
                best_score = float(scores[idx])
                best = (feature, float(thresholds[idx]))
        return best

    def _candidate_thresholds(self, column: np.ndarray) -> np.ndarray:
        unique = np.unique(column)
        if unique.size < 2:
            return np.empty(0)
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        if midpoints.size > self.max_candidate_thresholds:
            quantiles = np.linspace(0, 1, self.max_candidate_thresholds + 2)[1:-1]
            midpoints = np.quantile(column, quantiles)
            midpoints = np.unique(midpoints)
        return midpoints

    # ------------------------------------------------------------------ ---
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict by routing each sample to its leaf."""
        check_is_fitted(self, "root_")
        x = check_feature_matrix(x, allow_empty=True)
        if x.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {x.shape[1]}")
        return np.array([self._predict_one(row) for row in x], dtype=np.float64)

    def _predict_one(self, row: np.ndarray) -> float:
        node = self.root_
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def depth(self) -> int:
        """Actual depth of the grown tree."""
        check_is_fitted(self, "root_")

        def _depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self.root_)

    # ------------------------------------------------------------------ ---
    def to_state(self) -> dict:
        """JSON-serialisable fitted state (bitwise-exact round-trip).

        The grown tree is encoded as nested node dicts; ``random_state``
        only steers fitting (feature subsampling), so a non-integer seed is
        stored as ``None`` — the fitted structure is complete without it.
        """
        check_is_fitted(self, "root_")
        from repro.models.state import serializable_seed

        def _node_state(node: _Node) -> dict:
            if node.is_leaf:
                return {"value": node.value}
            return {
                "value": node.value,
                "feature": int(node.feature),
                "threshold": node.threshold,
                "left": _node_state(node.left),
                "right": _node_state(node.right),
            }

        try:
            seed = serializable_seed(self.random_state)
        except TypeError:
            seed = None
        return {
            "type": type(self).__name__,
            "params": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_candidate_thresholds": self.max_candidate_thresholds,
                "max_features": self.max_features,
                "random_state": seed,
            },
            "n_features": self.n_features_,
            "root": _node_state(self.root_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTreeRegressor":
        """Rebuild a fitted tree from its :meth:`to_state` form."""
        from repro.models.state import expect_state_type

        expect_state_type(state, cls)

        def _node(payload: dict) -> _Node:
            if "feature" not in payload or payload["feature"] is None:
                return _Node(value=float(payload["value"]))
            return _Node(
                value=float(payload["value"]),
                feature=int(payload["feature"]),
                threshold=float(payload["threshold"]),
                left=_node(payload["left"]),
                right=_node(payload["right"]),
            )

        tree = cls(**state["params"])
        tree.n_features_ = int(state["n_features"])
        tree.root_ = _node(state["root"])
        return tree
