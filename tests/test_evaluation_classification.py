"""Tests for repro.evaluation.classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.stats import mannwhitneyu

from repro.evaluation.classification import accuracy, auroc


class TestAccuracy:
    def test_perfect(self):
        y = np.array([0, 1, 1, 0])
        assert accuracy(y, y) == 1.0

    def test_half(self):
        assert accuracy(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


def _trapezoidal_roc_area(y, scores):
    """Area under the ROC curve (one point per distinct score) by the trapezoid rule."""
    order = np.argsort(-scores, kind="stable")
    last = np.r_[np.flatnonzero(np.diff(scores[order])), y.size - 1]
    tpr = np.r_[0.0, np.cumsum(y[order])[last] / y.sum()]
    fpr = np.r_[0.0, np.cumsum(1 - y[order])[last] / (y.size - y.sum())]
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


class TestAuroc:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert auroc(y, scores) == 1.0

    def test_inverted_scores(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auroc(y, scores) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=4000)
        y[:2] = [0, 1]
        scores = rng.uniform(size=4000)
        assert abs(auroc(y, scores) - 0.5) < 0.05

    def test_ties_counted_half(self):
        y = np.array([0, 1])
        scores = np.array([0.5, 0.5])
        assert auroc(y, scores) == 0.5

    def test_matches_trapezoidal_roc_area(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, size=200)
        y[:2] = [0, 1]
        scores = rng.normal(size=200) + y  # informative but noisy
        assert abs(_trapezoidal_roc_area(y, scores) - auroc(y, scores)) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_mann_whitney_u(self, seed):
        """AUROC is scipy's Mann-Whitney U of the positives over n1 * n0,
        ties counted half (scores rounded to one decimal tie often)."""
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=300)
        y[:2] = [0, 1]
        scores = np.round(rng.normal(size=300) + y, 1)
        positives, negatives = scores[y == 1], scores[y == 0]
        u = mannwhitneyu(positives, negatives, alternative="two-sided").statistic
        expected = u / (positives.size * negatives.size)
        assert auroc(y, scores) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            auroc(np.array([0, 1, 1]), np.array([0.2, 0.8]))

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            auroc(np.ones(5, dtype=int), np.random.uniform(size=5))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=100)
        y[:2] = [0, 1]
        scores = rng.normal(size=100) + 2 * y
        a = auroc(y, scores)
        b = auroc(y, 1.0 / (1.0 + np.exp(-scores)))
        assert abs(a - b) < 1e-12


@given(
    n=st.integers(min_value=4, max_value=120),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_property_auroc_symmetry(n, seed):
    """AUROC(y, s) + AUROC(y, -s) == 1 (up to tie handling)."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1
    scores = rng.normal(size=n)
    assert abs(auroc(y, scores) + auroc(y, -scores) - 1.0) < 1e-9
