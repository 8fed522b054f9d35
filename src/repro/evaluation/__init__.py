"""Evaluation metrics used throughout the reproduction.

Implements, with numpy only, every metric the paper reports: classification
accuracy and AUROC (Tables I and II, Fig. 2), regression R², residual standard
deviation σ and Pearson correlation (Tables I and II, the correlation claims
of Section II), pixel accuracy (the decision-rule comparison), and the
empirical-CDF / stochastic-dominance machinery of Fig. 5.
"""

from repro.evaluation.classification import accuracy, auroc
from repro.evaluation.regression import r2_score, residual_std, pearson_correlation
from repro.evaluation.segmentation import pixel_accuracy
from repro.evaluation.distributions import EmpiricalCDF, first_order_dominates

__all__ = [
    "accuracy",
    "auroc",
    "r2_score",
    "residual_std",
    "pearson_correlation",
    "pixel_accuracy",
    "EmpiricalCDF",
    "first_order_dominates",
]
