"""Meta classification: detecting false-positive segments (IoU = 0 vs. > 0).

Given the structured dataset M of segment metrics, meta classification is the
binary task of predicting, without ground truth at inference time, whether a
predicted segment intersects the ground truth (IoU > 0) or is a false
positive (IoU = 0).  Section II of the paper solves the task with (penalised
and unpenalised) logistic regression; Section III additionally uses gradient
boosting and shallow neural networks.  Two baselines are reported in Table I:

* *entropy only* — the same model fitted on the single feature "mean entropy
  over the segment";
* *naive random guessing* — assigning a random score to every segment, whose
  best achievable accuracy is the majority-class fraction and whose AUROC is
  0.5 in expectation.

The model families are the :attr:`MetaClassifier.FAMILIES` table; the
construction shared with meta regression lives in
:mod:`repro.core.meta_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.api.registry import META_CLASSIFIERS
from repro.core.dataset import MetricsDataset
from repro.core.metrics import METRIC_GROUPS
from repro.core.meta_model import BOOSTING_DEFAULTS, NETWORK_DEFAULTS, Family, MetaModel
from repro.evaluation.classification import accuracy, auroc
from repro.models.gradient_boosting import GradientBoostingClassifier
from repro.models.logistic import LogisticRegression
from repro.models.neural_network import MLPClassifier
from repro.utils.rng import RandomState


def naive_baseline_accuracy(dataset: MetricsDataset) -> float:
    """Best accuracy achievable by random guessing (the majority-class rate).

    Thresholding a random score can at best predict the majority class for
    every segment, so the expected best accuracy equals the larger of the two
    class fractions — this is the "naive baseline" row of Table I.
    """
    targets = dataset.target_iou0()
    positive_rate = float(np.mean(targets))
    return max(positive_rate, 1.0 - positive_rate)


@dataclass
class MetaClassificationResult:
    """Evaluation result of a meta classifier on train and test splits."""

    train_accuracy: float
    test_accuracy: float
    train_auroc: float
    test_auroc: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (metric name -> value)."""
        return {
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "train_auroc": self.train_auroc,
            "test_auroc": self.test_auroc,
        }


class MetaClassifier(MetaModel):
    """Segment-wise false-positive detector operating on metric datasets.

    ``method`` is a key of :attr:`FAMILIES`.  The "penalized" /
    "unpenalized" rows of Table I are ``penalty > 0`` / ``penalty = 0``;
    pass ``feature_subset=["E_mean"]`` (``METRIC_GROUPS["entropy_only"]``)
    for the entropy baseline.  The other keywords are those of
    :class:`~repro.core.meta_model.MetaModel`.
    """

    FAMILIES = {
        "logistic": Family(LogisticRegression, "penalty", False, {}),
        "gradient_boosting": Family(GradientBoostingClassifier, None, True, BOOSTING_DEFAULTS),
        "neural_network": Family(MLPClassifier, "l2_penalty", True, NETWORK_DEFAULTS),
    }

    def __init__(self, method: str = "logistic", **kwargs) -> None:
        super().__init__(method, **kwargs)

    def fit(self, dataset: MetricsDataset) -> "MetaClassifier":
        """Fit the meta classifier on a metrics dataset with IoU targets."""
        features = dataset.feature_matrix(self.feature_subset)
        targets = dataset.target_iou0()
        if np.unique(targets).size < 2:
            raise ValueError(
                "meta classification needs both IoU = 0 and IoU > 0 segments in training data"
            )
        self._fit_scaled(features, targets)
        return self

    def predict_proba(self, dataset: MetricsDataset) -> np.ndarray:
        """Probability that each segment is a true positive (IoU > 0)."""
        features = self._scaled_features(dataset)
        return self.model_.predict_proba(features)

    def predict(self, dataset: MetricsDataset, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 decision: 1 = IoU > 0 (keep), 0 = false positive."""
        return (self.predict_proba(dataset) >= threshold).astype(np.int64)

    def evaluate_fitted(
        self, train: MetricsDataset, test: MetricsDataset
    ) -> MetaClassificationResult:
        """Report ACC/AUROC on both splits without re-fitting."""
        train_scores = self.predict_proba(train)
        test_scores = self.predict_proba(test)
        train_targets = train.target_iou0()
        test_targets = test.target_iou0()
        return MetaClassificationResult(
            train_accuracy=accuracy(train_targets, (train_scores >= 0.5).astype(np.int64)),
            test_accuracy=accuracy(test_targets, (test_scores >= 0.5).astype(np.int64)),
            train_auroc=auroc(train_targets, train_scores),
            test_auroc=auroc(test_targets, test_scores),
        )


MetaClassifier.register_families(META_CLASSIFIERS)


def entropy_baseline_classifier(
    penalty: float = 0.0, random_state: RandomState = 0
) -> MetaClassifier:
    """Meta classifier restricted to the mean-entropy feature (Table I baseline)."""
    return MetaClassifier(
        method="logistic",
        penalty=penalty,
        feature_subset=list(METRIC_GROUPS["entropy_only"]),
        random_state=random_state,
    )
