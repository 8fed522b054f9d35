"""End-to-end Bayes-vs-Maximum-Likelihood comparison (Figs. 3-5).

Protocol:

1. estimate position-specific class priors on the training split of a
   Cityscapes-like dataset (Fig. 4);
2. run the segmentation network on the validation split and decode its
   softmax output with both the Bayes rule and the ML rule (Fig. 3);
3. collect segment-wise precision and recall for the chosen category
   ("human") under each rule and compare their empirical CDFs, stochastic
   dominance and non-detection rates (Fig. 5).

Each frame's softmax field is validated once; every rule then decodes the
validated field through :data:`repro.decision.rules.RULES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.decision.evaluation import ClassPrecisionRecall, collect_precision_recall
from repro.decision.priors import PixelPriorEstimator
from repro.decision.rules import RULES
from repro.evaluation.segmentation import pixel_accuracy
from repro.segmentation.datasets import SegmentationSample
from repro.segmentation.labels import HUMAN_CATEGORY, LabelSpace, cityscapes_label_space
from repro.segmentation.network import SimulatedSegmentationNetwork
from repro.utils.validation import check_probability_field


@dataclass
class DecisionRuleResult:
    """Comparison of decision rules for one network on one dataset."""

    network_name: str
    category: str
    per_rule: Dict[str, ClassPrecisionRecall] = field(default_factory=dict)
    pixel_accuracy: Dict[str, float] = field(default_factory=dict)

    def non_detection_rates(self) -> Dict[str, float]:
        """F^r(0) per rule: fraction of completely overlooked GT segments."""
        return {name: stats.non_detection_rate() for name, stats in self.per_rule.items()}

    def summary_rows(self) -> List[str]:
        """Human-readable summary of the Fig. 5 quantities."""
        rows = [f"network: {self.network_name}  category: {self.category}"]
        for name, stats in self.per_rule.items():
            rows.append(
                f"  {name:<12s} mean precision {stats.mean_precision():.3f}  "
                f"mean recall {stats.mean_recall():.3f}  "
                f"non-detection F^r(0) {stats.non_detection_rate():.3f}  "
                f"pixel acc {self.pixel_accuracy.get(name, float('nan')):.3f}  "
                f"(n_pred={stats.n_predicted_segments}, n_gt={stats.n_ground_truth_segments})"
            )
        return rows


class DecisionRuleComparison:
    """Runs the Section IV experiments on a Cityscapes-like dataset."""

    def __init__(
        self,
        network: SimulatedSegmentationNetwork,
        label_space: Optional[LabelSpace] = None,
        category: str = HUMAN_CATEGORY,
    ) -> None:
        self.network = network
        self.label_space = label_space or cityscapes_label_space()
        self.category = category
        self.prior_estimator = PixelPriorEstimator(
            label_space=self.label_space,
            laplace_smoothing=2.0,
            spatial_sigma=2.0,
            global_blend=0.25,
        )
        self._priors: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ ---
    def fit_priors(self, samples: "Iterable[SegmentationSample]") -> np.ndarray:
        """Estimate position-specific priors from training samples (Fig. 4).

        Accepts any iterable (consumed once), so a lazy sample stream works
        without materialising the training split.
        """
        self.prior_estimator.fit(sample.labels for sample in samples)
        self._priors = self.prior_estimator.priors()
        return self._priors

    def set_priors(self, priors: np.ndarray) -> None:
        """Install an externally fitted (H, W, C) prior field.

        Used by the stage-1 shards: the Runner fits the priors once (or loads
        them from the store) and ships the array to every shard, which is
        both cheaper than refitting per shard and trivially bit-identical.
        """
        self._priors = np.asarray(priors, dtype=np.float64)

    @property
    def priors(self) -> np.ndarray:
        """The fitted (H, W, C) prior field."""
        if self._priors is None:
            raise RuntimeError("call fit_priors before using the ML rule")
        return self._priors

    def category_prior_heatmap(self) -> np.ndarray:
        """(H, W) prior heatmap of the configured category (Fig. 4)."""
        return self.prior_estimator.category_prior(self.category)

    # ------------------------------------------------------------------ ---
    def decode(self, probs: np.ndarray, rule: str, strength: float = 1.0) -> np.ndarray:
        """Validate a probability field and decode it with the requested rule.

        *rule* names an entry of :data:`repro.decision.rules.RULES`, called
        as ``rule_fn(probs, priors=..., strength=...)``.  The ``ml`` and
        ``interpolated`` rules divide by the fitted priors, so they raise
        ``RuntimeError`` before :meth:`fit_priors`; ``bayes`` needs none.
        """
        return self._decode(check_probability_field(probs), rule, strength)

    def _decode(self, probs: np.ndarray, rule: str, strength: float) -> np.ndarray:
        """:meth:`decode` of a field that is already validated."""
        rule_fn = RULES[rule]
        return rule_fn(probs, priors=None if rule == "bayes" else self.priors, strength=strength)

    def _compare_one(
        self,
        sample: SegmentationSample,
        index: int,
        rules: Sequence[str],
        strengths: Dict[str, float],
    ) -> Dict[str, Tuple[List[float], List[float], float]]:
        """Per-rule (precision samples, recall samples, pixel accuracy) of one sample."""
        probs = check_probability_field(
            self.network.predict_probabilities(sample.labels, index=index)
        )
        out: Dict[str, Tuple[List[float], List[float], float]] = {}
        for rule in rules:
            decoded = self._decode(probs, rule, strengths.get(rule, 1.0))
            precision, recall = collect_precision_recall(
                decoded,
                sample.labels,
                category=self.category,
                label_space=self.label_space,
            )
            out[rule] = (precision, recall, pixel_accuracy(sample.labels, decoded))
        return out

    def iter_compare_samples(
        self,
        samples: "Iterable[SegmentationSample]",
        rules: Sequence[str] = ("bayes", "ml"),
        index_offset: int = 0,
        strengths: Optional[Dict[str, float]] = None,
    ) -> "Iterable[Dict[str, Tuple[List[float], List[float], float]]]":
        """Yield the per-sample rule results in sample order.

        The lazy producer side of :meth:`compare`: samples are consumed one
        at a time, so any fold over this stream holds one sample's pixels.
        Stage-1 shards call this with an ``index_offset`` equal to their
        shard start (it seeds the network's per-image noise).
        """
        strengths = strengths or {}
        for index, sample in enumerate(samples, start=index_offset):
            yield self._compare_one(sample, index, rules, strengths)

    def fold_compare_results(
        self,
        per_sample: "Iterable[Dict[str, Tuple[List[float], List[float], float]]]",
        rules: Sequence[str] = ("bayes", "ml"),
    ) -> Tuple[DecisionRuleResult, int]:
        """Fold a stream of per-sample results into one DecisionRuleResult.

        The single reduction shared by :meth:`compare` and the stage-1
        shard fold: per-rule statistics are extended in sample order and the
        pixel-accuracy sum is divided once at the end, so every path that
        produces the same per-sample stream folds to bitwise-equal numbers.
        Returns the result together with the number of samples consumed.
        """
        result = DecisionRuleResult(
            network_name=self.network.profile.name, category=self.category
        )
        for rule in rules:
            result.per_rule[rule] = ClassPrecisionRecall(rule_name=rule)
            result.pixel_accuracy[rule] = 0.0
        accuracy_sums = {rule: 0.0 for rule in rules}
        n_samples = 0
        for sample_result in per_sample:
            n_samples += 1
            for rule in rules:
                precision, recall, accuracy_value = sample_result[rule]
                result.per_rule[rule].extend(precision, recall)
                accuracy_sums[rule] += accuracy_value
        if not n_samples:
            raise ValueError("at least one evaluation sample is required")
        for rule in rules:
            result.pixel_accuracy[rule] = accuracy_sums[rule] / n_samples
        return result, n_samples

    def compare(
        self,
        samples: "Iterable[SegmentationSample]",
        rules: Sequence[str] = ("bayes", "ml"),
        index_offset: int = 0,
        strengths: Optional[Dict[str, float]] = None,
    ) -> DecisionRuleResult:
        """Run the comparison over evaluation samples (Fig. 5 protocol).

        Folds :meth:`iter_compare_samples` as it is produced, so a lazy
        sample stream is never materialised.
        """
        result, _ = self.fold_compare_results(
            self.iter_compare_samples(
                samples, rules=rules, index_offset=index_offset, strengths=strengths
            ),
            rules=rules,
        )
        return result
