"""Uniform position-specific priors: the field under which ML equals Bayes."""

from __future__ import annotations

import numpy as np


def uniform_priors(height: int, width: int, n_classes: int) -> np.ndarray:
    """Uniform (H, W, C) priors — under which the ML rule equals the Bayes rule."""
    if height < 1 or width < 1 or n_classes < 2:
        raise ValueError("invalid prior field dimensions")
    return np.full((height, width, n_classes), 1.0 / n_classes, dtype=np.float64)
