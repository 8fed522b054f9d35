"""Binary classification metrics: accuracy and AUROC.

Table I and Table II of the paper report meta classification performance as
accuracy (ACC) and area under the ROC curve (AUROC), both in percent.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_binary_labels


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct binary predictions."""
    y_true = check_binary_labels(y_true, "y_true")
    y_pred = check_binary_labels(y_pred, "y_pred")
    if y_true.shape[0] != y_pred.shape[0]:
        raise ValueError("y_true and y_pred must have the same length")
    if y_true.shape[0] == 0:
        raise ValueError("cannot compute accuracy of empty arrays")
    return float(np.mean(y_true == y_pred))


def auroc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve.

    Computed via the Mann-Whitney U statistic (probability that a randomly
    chosen positive sample receives a higher score than a randomly chosen
    negative one, ties counted as 1/2), which equals the trapezoidal area
    under the ROC curve.
    """
    y_true = check_binary_labels(y_true, "y_true")
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if y_true.shape[0] != scores.shape[0]:
        raise ValueError("y_true and scores must have the same length")
    n_positive = int(y_true.sum())
    n_negative = int(y_true.shape[0] - n_positive)
    if n_positive == 0 or n_negative == 0:
        raise ValueError("AUROC requires both positive and negative samples")
    # Midranks handle ties exactly.
    order = np.argsort(scores, kind="stable")
    ranks = np.empty_like(scores)
    sorted_scores = scores[order]
    rank_values = np.arange(1, scores.shape[0] + 1, dtype=np.float64)
    # Average ranks of tied groups.
    unique, inverse, counts = np.unique(sorted_scores, return_inverse=True, return_counts=True)
    cumulative = np.cumsum(counts)
    start = cumulative - counts
    average_rank = (start + cumulative + 1) / 2.0
    ranks[order] = average_rank[inverse]
    del rank_values
    rank_sum_positive = float(ranks[y_true == 1].sum())
    u_statistic = rank_sum_positive - n_positive * (n_positive + 1) / 2.0
    return float(u_statistic / (n_positive * n_negative))
