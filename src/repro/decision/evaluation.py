"""Segment-wise precision/recall evaluation of decision rules (Fig. 5).

For a chosen category (the paper uses "human" = person + rider), every
predicted segment contributes a precision value and every ground-truth segment
a recall value.  Fig. 5 compares the empirical CDFs of these values under the
Bayes and ML decision rules and reads off two effects:

* precision: F^p_ML ≺ F^p_B — Bayes values are typically larger
  (first-order stochastic dominance);
* recall: the opposite, and in particular F^r_B(0) > F^r_ML(0): the ML rule
  misses far fewer ground-truth segments entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.segments import extract_segments, segment_precision_recall
from repro.evaluation.distributions import EmpiricalCDF, first_order_dominates
from repro.segmentation.labels import HUMAN_CATEGORY, LabelSpace, cityscapes_label_space
from repro.utils.validation import check_label_map


@dataclass
class ClassPrecisionRecall:
    """Segment-wise precision and recall samples for one decision rule."""

    rule_name: str
    precision_values: List[float] = field(default_factory=list)
    recall_values: List[float] = field(default_factory=list)

    def extend(self, precision: Iterable[float], recall: Iterable[float]) -> None:
        """Append new precision / recall samples."""
        self.precision_values.extend(float(v) for v in precision)
        self.recall_values.extend(float(v) for v in recall)

    @property
    def n_predicted_segments(self) -> int:
        """Number of predicted segments contributing precision values."""
        return len(self.precision_values)

    @property
    def n_ground_truth_segments(self) -> int:
        """Number of ground-truth segments contributing recall values."""
        return len(self.recall_values)

    def precision_cdf(self) -> EmpiricalCDF:
        """Empirical CDF F^p of the segment-wise precision."""
        return EmpiricalCDF.from_sample(self.precision_values)

    def recall_cdf(self) -> EmpiricalCDF:
        """Empirical CDF F^r of the segment-wise recall."""
        return EmpiricalCDF.from_sample(self.recall_values)

    def non_detection_rate(self) -> float:
        """F^r(0): fraction of ground-truth segments with zero recall."""
        return non_detection_rate(self.recall_values)

    def mean_precision(self) -> float:
        """Mean segment-wise precision."""
        if not self.precision_values:
            raise ValueError("no precision samples collected")
        return float(np.mean(self.precision_values))

    def mean_recall(self) -> float:
        """Mean segment-wise recall."""
        if not self.recall_values:
            raise ValueError("no recall samples collected")
        return float(np.mean(self.recall_values))


def non_detection_rate(recall_values: Sequence[float]) -> float:
    """Fraction of ground-truth segments that are completely overlooked."""
    values = np.asarray(list(recall_values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("no recall samples provided")
    return float(np.mean(values == 0.0))


def collect_precision_recall(
    prediction_labels: np.ndarray,
    gt_labels: np.ndarray,
    category: str = HUMAN_CATEGORY,
    label_space: Optional[LabelSpace] = None,
    connectivity: int = 8,
    ignore_id: int = -1,
) -> Tuple[List[float], List[float]]:
    """Precision and recall samples of one image for one category.

    Returns (precision values of predicted segments, recall values of
    ground-truth segments), both restricted to the category's classes.
    """
    label_space = label_space or cityscapes_label_space()
    prediction_labels = check_label_map(prediction_labels, "prediction_labels")
    gt_labels = check_label_map(gt_labels, "gt_labels")
    class_ids = label_space.ids_in_category(category)
    prediction = extract_segments(prediction_labels, connectivity=connectivity)
    ground_truth = extract_segments(gt_labels, connectivity=connectivity, ignore_id=ignore_id)
    precision, recall = segment_precision_recall(
        prediction, ground_truth, class_ids=class_ids, ignore_id=ignore_id
    )
    return list(precision.values()), list(recall.values())


def precision_dominance(
    bayes: ClassPrecisionRecall, ml: ClassPrecisionRecall, tolerance: float = 0.03
) -> bool:
    """Check F^p_ML ≺ F^p_B (Bayes precision stochastically dominates ML's)."""
    return first_order_dominates(
        cdf_smaller=ml.precision_cdf(), cdf_larger=bayes.precision_cdf(), tolerance=tolerance
    )


def recall_dominance(
    bayes: ClassPrecisionRecall, ml: ClassPrecisionRecall, tolerance: float = 0.03
) -> bool:
    """Check F^r_B ≺ F^r_ML reversed: ML recall stochastically dominates Bayes'."""
    return first_order_dominates(
        cdf_smaller=bayes.recall_cdf(), cdf_larger=ml.recall_cdf(), tolerance=tolerance
    )
