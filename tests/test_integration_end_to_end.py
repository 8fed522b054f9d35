"""End-to-end integration tests spanning several subpackages.

These tests exercise the public API the way the examples and benchmark
harnesses do and assert the *qualitative* results of the paper: the ordering
of methods and baselines, not absolute numbers.
"""

import pytest

from repro import (
    CityscapesLikeDataset,
    DecisionRuleComparison,
    MetaSegPipeline,
    MetricsDataset,
    SimulatedSegmentationNetwork,
    mobilenetv2_profile,
    xception65_profile,
)
from repro.core.meta_classification import MetaClassifier
from repro.core.multiresolution import MultiResolutionInference
from repro.segmentation.scene import SceneConfig


@pytest.fixture(scope="module")
def dataset():
    return CityscapesLikeDataset(
        n_train=6, n_val=8, scene_config=SceneConfig(height=48, width=96), random_state=21
    )


@pytest.fixture(scope="module")
def pipelines(dataset):
    weak = SimulatedSegmentationNetwork(mobilenetv2_profile(), random_state=22)
    strong = SimulatedSegmentationNetwork(xception65_profile(), random_state=22)
    return MetaSegPipeline(weak), MetaSegPipeline(strong)


class TestTable1Shape:
    """The Table I orderings must hold end-to-end on the synthetic substrate."""

    @pytest.fixture(scope="class")
    def results(self, pipelines, dataset):
        out = {}
        for pipeline in pipelines:
            metrics = pipeline.extract_dataset(dataset.val_samples())
            out[pipeline.network.profile.name] = (
                metrics,
                pipeline.run_table1_protocol(metrics, n_runs=3, random_state=5),
            )
        return out

    def test_full_metrics_beat_entropy_and_naive(self, results):
        for name, (metrics, result) in results.items():
            full_auroc = result.classification["logistic_penalized"]["test_auroc"][0]
            entropy_auroc = result.classification["entropy_only"]["test_auroc"][0]
            assert full_auroc > entropy_auroc, name
            full_acc = result.classification["logistic_penalized"]["test_accuracy"][0]
            assert full_acc >= result.naive_accuracy - 0.05, name

    def test_regression_gains_over_entropy(self, results):
        for name, (_metrics, result) in results.items():
            assert (
                result.regression["linear_all_metrics"]["test_r2"][0]
                > result.regression["entropy_only"]["test_r2"][0]
            ), name

    def test_penalized_and_unpenalized_similar(self, results):
        for name, (_metrics, result) in results.items():
            penalized = result.classification["logistic_penalized"]["test_accuracy"][0]
            unpenalized = result.classification["logistic_unpenalized"]["test_accuracy"][0]
            assert abs(penalized - unpenalized) < 0.1, name

    def test_stronger_network_has_fewer_false_positives(self, results):
        weak_fraction = results["mobilenetv2"][0].false_positive_fraction()
        strong_fraction = results["xception65"][0].false_positive_fraction()
        assert strong_fraction <= weak_fraction + 0.05

    def test_strong_single_metric_correlations_exist(self, pipelines, results):
        # Section II quotes Pearson |R| of up to ~0.85 for single metrics.
        for pipeline in pipelines:
            metrics, _ = results[pipeline.network.profile.name]
            correlations = pipeline.metric_iou_correlations(metrics)
            assert max(abs(v) for v in correlations.values()) > 0.6


class TestMultiResolutionGain:
    def test_ensemble_features_do_not_hurt(self, dataset):
        network = SimulatedSegmentationNetwork(mobilenetv2_profile(), random_state=30)
        plain = MetaSegPipeline(network)
        plain_data = plain.extract_dataset(dataset.val_samples())
        pyramid = MultiResolutionInference(network, crop_fractions=(1.0, 0.75, 0.5))
        pyramid_data = pyramid.extract_many(dataset.val_samples())
        assert pyramid_data.n_features > plain_data.n_features
        # Both datasets must support meta classification.
        for data in (plain_data, pyramid_data):
            train, test = data.split((0.8, 0.2), random_state=1)
            result = MetaClassifier(method="logistic", penalty=1.0).evaluate(train, test)
            assert result.test_auroc > 0.6


class TestDecisionRulesShape:
    """The Fig. 5 orderings must hold end-to-end."""

    @pytest.fixture(scope="class")
    def comparison(self, dataset):
        network = SimulatedSegmentationNetwork(mobilenetv2_profile(), random_state=31)
        comparison = DecisionRuleComparison(network)
        comparison.fit_priors(dataset.train_samples())
        return comparison.compare(dataset.val_samples())

    def test_ml_trades_precision_for_recall(self, comparison):
        bayes = comparison.per_rule["bayes"]
        ml = comparison.per_rule["ml"]
        assert bayes.mean_precision() >= ml.mean_precision()
        assert ml.mean_recall() >= bayes.mean_recall() - 0.05

    def test_ml_reduces_missed_ground_truth(self, comparison):
        rates = comparison.non_detection_rates()
        assert rates["ml"] <= rates["bayes"]


class TestMetricsDatasetRoundTrip:
    def test_pipeline_dataset_survives_split_and_concat(self, pipelines, dataset):
        pipeline, _ = pipelines
        metrics = pipeline.extract_dataset(dataset.val_samples()[:4])
        train, test = metrics.split((0.75, 0.25), random_state=0)
        rebuilt = MetricsDataset.concatenate([train, test])
        assert len(rebuilt) == len(metrics)
        assert sorted(rebuilt.feature("S").tolist()) == sorted(metrics.feature("S").tolist())
