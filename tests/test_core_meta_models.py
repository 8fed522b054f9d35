"""Tests for repro.core.meta_classification and repro.core.meta_regression."""

import numpy as np
import pytest

from repro.core.meta_classification import (
    MetaClassifier,
    entropy_baseline_classifier,
    naive_baseline_accuracy,
)
from repro.core.meta_regression import MetaRegressor, entropy_baseline_regressor


@pytest.fixture(scope="module")
def split_dataset(metrics_dataset):
    return metrics_dataset.split((0.8, 0.2), random_state=1)


class TestMetaClassifier:
    def test_logistic_beats_chance(self, split_dataset):
        train, test = split_dataset
        result = MetaClassifier(method="logistic").evaluate(train, test)
        assert result.test_auroc > 0.7
        assert result.test_accuracy > naive_baseline_accuracy(test) - 0.1

    def test_full_metrics_beat_entropy_baseline(self, split_dataset):
        train, test = split_dataset
        full = MetaClassifier(method="logistic").evaluate(train, test)
        entropy = entropy_baseline_classifier().evaluate(train, test)
        assert full.test_auroc > entropy.test_auroc

    def test_gradient_boosting_works(self, split_dataset):
        train, test = split_dataset
        result = MetaClassifier(method="gradient_boosting", n_estimators=20).evaluate(train, test)
        assert result.test_auroc > 0.7

    def test_neural_network_works(self, split_dataset):
        train, test = split_dataset
        result = MetaClassifier(
            method="neural_network", penalty=1e-3, n_epochs=60
        ).evaluate(train, test)
        assert result.test_auroc > 0.65

    def test_predict_proba_range(self, split_dataset):
        train, test = split_dataset
        classifier = MetaClassifier(method="logistic").fit(train)
        probs = classifier.predict_proba(test)
        assert np.all((probs >= 0) & (probs <= 1))
        assert probs.shape == (len(test),)

    def test_predict_threshold(self, split_dataset):
        train, test = split_dataset
        classifier = MetaClassifier(method="logistic").fit(train)
        assert classifier.predict(test, threshold=0.05).sum() >= classifier.predict(test, threshold=0.95).sum()

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            MetaClassifier(method="svm")

    def test_negative_penalty_raises(self):
        with pytest.raises(ValueError):
            MetaClassifier(penalty=-1.0)

    def test_unfitted_predict_raises(self, metrics_dataset):
        with pytest.raises(RuntimeError):
            MetaClassifier().predict_proba(metrics_dataset)

    def test_single_class_training_raises(self, metrics_dataset):
        positives = np.nonzero(metrics_dataset.target_iou0() == 1)[0]
        subset = metrics_dataset.subset(positives)
        with pytest.raises(ValueError):
            MetaClassifier().fit(subset)

    def test_result_as_dict(self, split_dataset):
        train, test = split_dataset
        result = MetaClassifier(method="logistic").evaluate(train, test)
        as_dict = result.as_dict()
        assert set(as_dict) == {"train_accuracy", "test_accuracy", "train_auroc", "test_auroc"}


class TestBaselines:
    def test_naive_accuracy_is_majority_fraction(self, metrics_dataset):
        naive = naive_baseline_accuracy(metrics_dataset)
        positive_rate = float(np.mean(metrics_dataset.target_iou0()))
        assert naive == max(positive_rate, 1 - positive_rate)
        assert 0.5 <= naive <= 1.0


class TestMetaRegressor:
    def test_linear_beats_entropy_baseline(self, split_dataset):
        train, test = split_dataset
        # A mild ridge penalty keeps the comparison stable on the small test
        # fixture (the paper's datasets have thousands of segments).
        full = MetaRegressor(method="linear", penalty=1.0).evaluate(train, test)
        entropy = entropy_baseline_regressor().evaluate(train, test)
        assert full.test_r2 > entropy.test_r2
        assert full.test_sigma < entropy.test_sigma

    def test_r2_reasonable(self, split_dataset):
        train, test = split_dataset
        result = MetaRegressor(method="linear", penalty=1.0).evaluate(train, test)
        assert result.test_r2 > 0.3

    def test_predictions_clipped_to_unit_interval(self, split_dataset):
        train, test = split_dataset
        regressor = MetaRegressor(method="linear").fit(train)
        predictions = regressor.predict(test)
        assert predictions.min() >= 0.0
        assert predictions.max() <= 1.0

    def test_clipping_can_be_disabled(self, split_dataset):
        train, test = split_dataset
        regressor = MetaRegressor(method="linear", clip_predictions=False).fit(train)
        predictions = regressor.predict(test)
        assert predictions.shape == (len(test),)

    def test_gradient_boosting_regression(self, split_dataset):
        train, test = split_dataset
        result = MetaRegressor(method="gradient_boosting", n_estimators=20).evaluate(train, test)
        assert result.test_r2 > 0.3

    def test_neural_network_regression(self, split_dataset):
        train, test = split_dataset
        result = MetaRegressor(method="neural_network", penalty=1e-3, n_epochs=60).evaluate(train, test)
        assert result.test_r2 > 0.2

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            MetaRegressor(method="forest")

    def test_unfitted_predict_raises(self, metrics_dataset):
        with pytest.raises(RuntimeError):
            MetaRegressor().predict(metrics_dataset)

    def test_result_as_dict(self, split_dataset):
        train, test = split_dataset
        result = MetaRegressor(method="linear").evaluate(train, test)
        assert set(result.as_dict()) == {"train_sigma", "test_sigma", "train_r2", "test_r2"}
