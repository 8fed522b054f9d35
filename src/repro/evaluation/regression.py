"""Regression metrics: R², residual standard deviation, Pearson correlation.

Table I and Table II report meta regression performance as σ (the standard
deviation of the prediction residuals) and R²; Section II additionally quotes
Pearson correlation coefficients of single metrics with the segment IoU.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_vector


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination R²."""
    y_true = check_vector(y_true, name="y_true")
    y_pred = check_vector(y_pred, n=y_true.shape[0], name="y_pred")
    if y_true.shape[0] < 2:
        raise ValueError("R² requires at least two samples")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def residual_std(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Standard deviation σ of the residuals (the paper's σ column)."""
    y_true = check_vector(y_true, name="y_true")
    y_pred = check_vector(y_pred, n=y_true.shape[0], name="y_pred")
    if y_true.shape[0] == 0:
        raise ValueError("residual_std requires at least one sample")
    residuals = y_true - y_pred
    return float(np.sqrt(np.mean(residuals**2)))


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient R between two samples.

    Returns 0 when either sample is constant (the correlation is undefined
    there; 0 is the conservative choice for ranking metrics by |R|).
    """
    x = check_vector(x, name="x")
    y = check_vector(y, n=x.shape[0], name="y")
    if x.shape[0] < 2:
        raise ValueError("pearson_correlation requires at least two samples")
    x_centered = x - x.mean()
    y_centered = y - y.mean()
    denom = float(np.sqrt(np.sum(x_centered**2) * np.sum(y_centered**2)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(x_centered * y_centered) / denom)
