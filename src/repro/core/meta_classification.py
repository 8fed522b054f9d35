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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.api.registry import META_CLASSIFIERS
from repro.core.dataset import MetricsDataset
from repro.core.metrics import METRIC_GROUPS
from repro.evaluation.classification import accuracy, auroc
from repro.models.gradient_boosting import GradientBoostingClassifier
from repro.models.logistic import LogisticRegression
from repro.models.neural_network import MLPClassifier
from repro.models.scaler import StandardScaler
from repro.utils.rng import RandomState, as_rng

#: Model families supported for the meta classification task.
CLASSIFIER_METHODS = ("logistic", "gradient_boosting", "neural_network")


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
        """Plain-dict view (used by the benchmark harnesses)."""
        return {
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "train_auroc": self.train_auroc,
            "test_auroc": self.test_auroc,
        }


class MetaClassifier:
    """Segment-wise false-positive detector operating on metric datasets.

    Parameters
    ----------
    method:
        One of ``"logistic"``, ``"gradient_boosting"``, ``"neural_network"``.
    penalty:
        l2 penalty strength (used by the logistic and neural-network models;
        the "penalized" / "unpenalized" rows of Table I correspond to
        ``penalty > 0`` / ``penalty = 0``).
    feature_subset:
        Optional list of feature names to restrict the model to; pass
        ``["E_mean"]`` (or ``METRIC_GROUPS["entropy_only"]``) for the entropy
        baseline.
    random_state:
        Seed for the stochastic models (gradient boosting subsampling,
        neural-network initialisation).
    model_params:
        Extra keyword arguments forwarded to the underlying model.
    """

    def __init__(
        self,
        method: str = "logistic",
        penalty: float = 0.0,
        feature_subset: Optional[Sequence[str]] = None,
        random_state: RandomState = 0,
        **model_params,
    ) -> None:
        if method not in CLASSIFIER_METHODS:
            raise ValueError(f"method must be one of {CLASSIFIER_METHODS}, got {method!r}")
        if penalty < 0:
            raise ValueError("penalty must be non-negative")
        self.method = method
        self.penalty = float(penalty)
        self.feature_subset = list(feature_subset) if feature_subset is not None else None
        self.random_state = random_state
        self.model_params = model_params
        self.scaler_: Optional[StandardScaler] = None
        self.model_ = None

    # ------------------------------------------------------------------ ---
    def _build_model(self):
        rng = as_rng(self.random_state)
        seed = int(rng.integers(0, 2**31 - 1))
        if self.method == "logistic":
            params = {"penalty": self.penalty}
            params.update(self.model_params)
            return LogisticRegression(**params)
        if self.method == "gradient_boosting":
            params = {"n_estimators": 60, "max_depth": 3, "learning_rate": 0.1,
                      "min_samples_leaf": 5, "random_state": seed}
            params.update(self.model_params)
            return GradientBoostingClassifier(**params)
        params = {"hidden_layer_sizes": (32,), "l2_penalty": self.penalty,
                  "n_epochs": 150, "learning_rate": 1e-2, "random_state": seed}
        params.update(self.model_params)
        return MLPClassifier(**params)

    def fit(self, dataset: MetricsDataset) -> "MetaClassifier":
        """Fit the meta classifier on a metrics dataset with IoU targets."""
        features = dataset.feature_matrix(self.feature_subset)
        targets = dataset.target_iou0()
        if np.unique(targets).size < 2:
            raise ValueError(
                "meta classification needs both IoU = 0 and IoU > 0 segments in training data"
            )
        self.scaler_ = StandardScaler().fit(features)
        self.model_ = self._build_model()
        self.model_.fit(self.scaler_.transform(features), targets)
        return self

    def predict_proba(self, dataset: MetricsDataset) -> np.ndarray:
        """Probability that each segment is a true positive (IoU > 0)."""
        if self.model_ is None:
            raise RuntimeError("MetaClassifier is not fitted yet")
        features = dataset.feature_matrix(self.feature_subset)
        return self.model_.predict_proba(self.scaler_.transform(features))

    def predict(self, dataset: MetricsDataset, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 decision: 1 = IoU > 0 (keep), 0 = false positive."""
        return (self.predict_proba(dataset) >= threshold).astype(np.int64)

    def evaluate(
        self, train: MetricsDataset, test: MetricsDataset
    ) -> MetaClassificationResult:
        """Fit on *train* and report ACC/AUROC on both splits (Table I protocol)."""
        self.fit(train)
        return self.evaluate_fitted(train, test)

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

    # ------------------------------------------------------------------ ---
    def param_state(self) -> dict:
        """Canonical constructor parameters (the identity part of a fit key).

        Raises TypeError for non-integer seeds: an ambiguous seed must never
        silently alias two different fits under one cache key.
        """
        from repro.models.state import serializable_seed

        return {
            "type": type(self).__name__,
            "method": self.method,
            "penalty": self.penalty,
            "feature_subset": self.feature_subset,
            "random_state": serializable_seed(self.random_state),
            "model_params": dict(self.model_params),
        }

    def to_state(self) -> dict:
        """JSON-serialisable fitted state (bitwise-exact round-trip)."""
        if self.model_ is None:
            raise RuntimeError("MetaClassifier is not fitted yet")
        from repro.models.state import model_to_state

        state = self.param_state()
        state["scaler"] = self.scaler_.to_state()
        state["model"] = model_to_state(self.model_)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "MetaClassifier":
        """Rebuild a fitted meta classifier from its :meth:`to_state` form."""
        from repro.models.state import expect_state_type, model_from_state

        expect_state_type(state, cls)
        meta = cls(
            method=state["method"],
            penalty=state["penalty"],
            feature_subset=state["feature_subset"],
            random_state=state["random_state"],
            **state["model_params"],
        )
        meta.scaler_ = StandardScaler.from_state(state["scaler"])
        meta.model_ = model_from_state(state["model"])
        return meta


# Register the supported model families as named factories: a registry entry
# is a MetaClassifier constructor with the method baked in, so configs select
# a variant purely by name.
def _classifier_factory(method: str):
    def factory(**kwargs) -> MetaClassifier:
        return MetaClassifier(method=method, **kwargs)

    factory.__name__ = f"{method}_meta_classifier"
    factory.__doc__ = f"MetaClassifier factory for the {method!r} model family."
    return factory


for _method in CLASSIFIER_METHODS:
    META_CLASSIFIERS.register(_method, _classifier_factory(_method))


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


def random_baseline_scores(n: int, random_state: RandomState = None) -> np.ndarray:
    """Random scores in [0, 1] for the naive random-guessing baseline."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_rng(random_state)
    return rng.uniform(0.0, 1.0, size=n)
