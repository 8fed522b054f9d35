"""Meta regression: predicting the segment-wise IoU without ground truth.

While meta classification yields a 0/1 decision, meta regression predicts the
IoU value itself as a gradual quality measure ("this can also be viewed as a
quality measure", Section II).  Table I reports the residual standard
deviation σ and R² for linear regression on all metrics and for the
entropy-only baseline; Section III adds gradient boosting and shallow neural
networks.  The families are the :attr:`MetaRegressor.FAMILIES` table over
the construction of :mod:`repro.core.meta_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.dataset import MetricsDataset
from repro.core.metrics import METRIC_GROUPS
from repro.core.meta_model import BOOSTING_DEFAULTS, NETWORK_DEFAULTS, Family, MetaModel
from repro.evaluation.regression import r2_score, residual_std
from repro.models.gradient_boosting import GradientBoostingRegressor
from repro.models.linear import LinearRegression
from repro.models.neural_network import MLPRegressor
from repro.utils.rng import RandomState


@dataclass
class MetaRegressionResult:
    """Evaluation result of a meta regressor on train and test splits."""

    train_sigma: float
    test_sigma: float
    train_r2: float
    test_r2: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (metric name -> value)."""
        return {
            "train_sigma": self.train_sigma,
            "test_sigma": self.test_sigma,
            "train_r2": self.train_r2,
            "test_r2": self.test_r2,
        }


class MetaRegressor(MetaModel):
    """Segment-wise IoU estimator operating on metric datasets.

    ``method`` is a key of :attr:`FAMILIES`; ``clip_predictions`` clips the
    predicted IoU values to [0, 1].  The other keywords are those of
    :class:`~repro.core.meta_model.MetaModel`.
    """

    FAMILIES = {
        "linear": Family(LinearRegression, "alpha", False, {}),
        "gradient_boosting": Family(GradientBoostingRegressor, None, True, BOOSTING_DEFAULTS),
        "neural_network": Family(MLPRegressor, "l2_penalty", True, NETWORK_DEFAULTS),
    }
    TASK_PARAMS = ("clip_predictions",)

    def __init__(self, method: str = "linear", clip_predictions: bool = True, **kwargs) -> None:
        super().__init__(method, **kwargs)
        self.clip_predictions = bool(clip_predictions)

    def fit(self, dataset: MetricsDataset) -> "MetaRegressor":
        """Fit the meta regressor on a metrics dataset with IoU targets."""
        features = dataset.feature_matrix(self.feature_subset)
        targets = dataset.target_iou()
        self._fit_scaled(features, targets)
        return self

    def predict(self, dataset: MetricsDataset) -> np.ndarray:
        """Predicted IoU per segment (clipped to [0, 1] unless disabled)."""
        features = self._scaled_features(dataset)
        predictions = self.model_.predict(features)
        if self.clip_predictions:
            predictions = np.clip(predictions, 0.0, 1.0)
        return predictions

    def evaluate_fitted(
        self, train: MetricsDataset, test: MetricsDataset
    ) -> MetaRegressionResult:
        """Report σ/R² on both splits without re-fitting."""
        train_pred = self.predict(train)
        test_pred = self.predict(test)
        train_targets = train.target_iou()
        test_targets = test.target_iou()
        return MetaRegressionResult(
            train_sigma=residual_std(train_targets, train_pred),
            test_sigma=residual_std(test_targets, test_pred),
            train_r2=r2_score(train_targets, train_pred),
            test_r2=r2_score(test_targets, test_pred),
        )


def entropy_baseline_regressor(
    penalty: float = 0.0, random_state: RandomState = 0
) -> MetaRegressor:
    """Meta regressor restricted to the mean-entropy feature (Table I baseline)."""
    return MetaRegressor(
        method="linear",
        penalty=penalty,
        feature_subset=list(METRIC_GROUPS["entropy_only"]),
        random_state=random_state,
    )
