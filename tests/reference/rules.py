"""The general cost-based decision rule of eqs. (4)-(8) and the ML costs.

The oracle of the two rules the program runs
(:mod:`repro.decision.rules`): the ML rule is :func:`cost_based_rule` with
the costs :func:`inverse_prior_costs` (eq. (7)), and the Bayes rule is the
ML rule under uniform priors (``tests/test_decision_rules_priors.py``).
"""

from __future__ import annotations

import numpy as np


def inverse_prior_costs(priors: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Cost tensor ψ_z(ŷ, y) = 1/p̂_z(y) of the ML rule (eq. (7)).

    Returns an array with one cost per (pixel, true class); the cost is
    independent of the predicted class ŷ (for ŷ ≠ y), as in the paper.
    """
    priors = np.asarray(priors, dtype=np.float64)
    if np.any(priors < 0):
        raise ValueError("priors must be non-negative")
    return 1.0 / np.maximum(priors, epsilon)


def cost_based_rule(probs: np.ndarray, confusion_costs: np.ndarray) -> np.ndarray:
    """General cost-based decision (eqs. (5)-(6)).

    Parameters
    ----------
    probs:
        Validated (H, W, C) posterior field.
    confusion_costs:
        Either a (C, C) matrix ψ(ŷ, y) of confusion costs (position
        independent) or an (H, W, C, C) tensor for position-specific costs.
        The diagonal (correct decisions) is ignored — it is forced to zero as
        in eq. (4).

    Returns
    -------
    (H, W) label map minimising the expected cost per pixel.
    """
    height, width, n_classes = probs.shape
    costs = np.asarray(confusion_costs, dtype=np.float64)
    if costs.ndim == 2:
        if costs.shape != (n_classes, n_classes):
            raise ValueError("confusion_costs matrix must be (C, C)")
        costs = np.broadcast_to(costs, (height, width, n_classes, n_classes))
    elif costs.shape != (height, width, n_classes, n_classes):
        raise ValueError("confusion_costs tensor must be (H, W, C, C)")
    if np.any(costs < 0):
        raise ValueError("confusion costs must be non-negative")
    # Zero out the diagonal ψ(y, y) = 0.
    eye = np.eye(n_classes, dtype=bool)
    costs = np.where(eye.reshape(1, 1, n_classes, n_classes), 0.0, costs)
    # expected_cost[.., yhat] = sum_y psi(yhat, y) * p(y)
    expected_cost = np.einsum("hwij,hwj->hwi", costs, probs)
    return np.argmin(expected_cost, axis=2).astype(np.int64)
