"""Tests for repro.decision.evaluation and repro.decision.pipeline."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api.config import ExperimentConfig
from repro.api.runner import Runner
from repro.decision.evaluation import (
    ClassPrecisionRecall,
    collect_precision_recall,
    non_detection_rate,
    precision_dominance,
    recall_dominance,
)
from repro.decision.pipeline import DecisionRuleComparison
from repro.utils import validation

REPO = Path(__file__).resolve().parents[1]


class TestClassPrecisionRecall:
    def test_extend_and_counts(self):
        stats = ClassPrecisionRecall("bayes")
        stats.extend([0.5, 1.0], [0.0, 0.9, 1.0])
        assert stats.n_predicted_segments == 2
        assert stats.n_ground_truth_segments == 3
        assert abs(stats.mean_precision() - 0.75) < 1e-12
        assert abs(stats.non_detection_rate() - 1 / 3) < 1e-12

    def test_cdfs(self):
        stats = ClassPrecisionRecall("ml")
        stats.extend([0.2, 0.4, 0.6], [0.1, 0.9])
        assert stats.precision_cdf()(0.5) == 2 / 3
        assert stats.recall_cdf()(0.5) == 0.5

    def test_empty_raises(self):
        stats = ClassPrecisionRecall("bayes")
        with pytest.raises(ValueError):
            stats.mean_precision()
        with pytest.raises(ValueError):
            stats.non_detection_rate()

    def test_mean_recall(self):
        stats = ClassPrecisionRecall("ml")
        with pytest.raises(ValueError, match="no recall samples"):
            stats.mean_recall()
        stats.extend([], [0.0, 0.5, 1.0])
        assert stats.mean_recall() == 0.5

    def test_non_detection_rate_direct(self):
        assert non_detection_rate([0.0, 0.0, 0.5, 1.0]) == 0.5
        with pytest.raises(ValueError):
            non_detection_rate([])


class TestCollectPrecisionRecall:
    def test_perfect_prediction(self, scene, label_space):
        precision, recall = collect_precision_recall(
            scene.labels, scene.labels, category="human", label_space=label_space
        )
        assert all(v == 1.0 for v in precision)
        assert all(v == 1.0 for v in recall)

    def test_missing_humans_yield_zero_recall(self, scene, label_space):
        human_ids = label_space.ids_in_category("human")
        erased = scene.labels.copy()
        erased[np.isin(erased, human_ids)] = label_space.id_of("road")
        precision, recall = collect_precision_recall(
            erased, scene.labels, category="human", label_space=label_space
        )
        assert precision == []
        if recall:
            assert all(v == 0.0 for v in recall)

    def test_unknown_category_raises(self, scene, label_space):
        with pytest.raises(KeyError):
            collect_precision_recall(scene.labels, scene.labels, category="robots")


class TestDominanceHelpers:
    def test_dominance_directions(self):
        bayes = ClassPrecisionRecall("bayes")
        ml = ClassPrecisionRecall("ml")
        rng = np.random.default_rng(0)
        bayes.extend(rng.uniform(0.5, 1.0, 200), rng.uniform(0.0, 0.7, 200))
        ml.extend(rng.uniform(0.0, 0.5, 200), rng.uniform(0.3, 1.0, 200))
        assert precision_dominance(bayes, ml)
        assert recall_dominance(bayes, ml)


class TestDecisionRuleComparison:
    @pytest.fixture(scope="class")
    def comparison_result(self, mobilenet_network, cityscapes_like, label_space):
        comparison = DecisionRuleComparison(mobilenet_network, label_space=label_space)
        comparison.fit_priors(cityscapes_like.train_samples())
        result = comparison.compare(cityscapes_like.val_samples(), rules=("bayes", "ml"))
        return comparison, result

    def test_priors_required_before_ml(self, mobilenet_network, probability_field):
        comparison = DecisionRuleComparison(mobilenet_network)
        with pytest.raises(RuntimeError):
            comparison.decode(probability_field, "ml")

    def test_each_frame_is_validated_once(self, monkeypatch):
        """``decision_small``'s 4 frames, each decoded by Bayes and ML, make
        4 field validations: one per frame, not one per rule."""
        original = validation.check_probability_field
        calls = []

        def counting(probs):
            calls.append(probs.shape)
            return original(probs)

        for module in list(sys.modules.values()):
            if getattr(module, "check_probability_field", None) is original:
                monkeypatch.setattr(module, "check_probability_field", counting)
        config = ExperimentConfig.from_json(
            (REPO / "examples" / "configs" / "decision_small.json").read_text()
        )
        Runner().run(config)
        assert len(calls) == config.data.n_val == 4

    def test_result_structure(self, comparison_result):
        _, result = comparison_result
        assert set(result.per_rule) == {"bayes", "ml"}
        assert set(result.pixel_accuracy) == {"bayes", "ml"}
        rates = result.non_detection_rates()
        assert set(rates) == {"bayes", "ml"}
        for stats in result.per_rule.values():
            assert stats.n_ground_truth_segments > 0

    def test_ml_reduces_non_detection(self, comparison_result):
        _, result = comparison_result
        rates = result.non_detection_rates()
        assert rates["ml"] <= rates["bayes"]

    def test_bayes_precision_higher(self, comparison_result):
        _, result = comparison_result
        assert (
            result.per_rule["bayes"].mean_precision()
            >= result.per_rule["ml"].mean_precision()
        )

    def test_bayes_pixel_accuracy_higher(self, comparison_result):
        _, result = comparison_result
        assert result.pixel_accuracy["bayes"] >= result.pixel_accuracy["ml"]

    def test_category_prior_heatmap_shape(self, comparison_result, scene_config):
        comparison, _ = comparison_result
        heatmap = comparison.category_prior_heatmap()
        assert heatmap.shape == (scene_config.height, scene_config.width)
        assert heatmap.min() >= 0.0

    def test_summary_rows(self, comparison_result):
        _, result = comparison_result
        rows = result.summary_rows()
        assert any("bayes" in row for row in rows)
        assert any("ml" in row for row in rows)

    def test_compare_empty_raises(self, mobilenet_network):
        comparison = DecisionRuleComparison(mobilenet_network)
        with pytest.raises(ValueError):
            comparison.compare([])
