"""Decision rules on top of the softmax output (eqs. (1), (4)-(9)).

A decision rule maps the per-pixel class distribution f_z(y|x) to a predicted
class.  The paper discusses three families:

* **Bayes / MAP** (eq. (1)): argmax of the posterior — the standard rule,
  equivalent to a cost function that penalises every confusion equally;
* **cost-based rules** (eqs. (4)-(6)): minimise the expected confusion cost
  Σ_y ψ_z(ŷ, y) f_z(y|x);
* **Maximum Likelihood** (eqs. (7)-(9)): the special cost ψ_z(ŷ, y) = 1/p̂_z(y)
  which, via Bayes' theorem, amounts to dividing the posterior by the
  position-specific prior and therefore picks the class for which the
  observation is most *typical*, independent of class frequency.

The program runs the Bayes and ML rules and the interpolation between them;
the general cost-based rule of eqs. (4)-(6) is the test oracle of both
(``tests/reference/rules.py``).

Every rule takes a validated (H, W, C) field
(:func:`repro.utils.validation.check_probability_field`): the caller
validates a frame once and decodes it with as many rules as it likes.  The
rules of :data:`RULES` share one signature, ``rule(probs, priors=None,
strength=1.0)``, and one prior check: a length-C vector or an (H, W, C)
field like the probabilities, non-negative.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _prior_field(priors: Optional[np.ndarray], shape: tuple, rule: str) -> np.ndarray:
    """*priors* as an array that broadcasts against a field of *shape*.

    Accepts a length-C vector of global priors or an (H, W, C) field of
    position-specific priors, non-negative; anything else is a
    ``ValueError`` naming what it found.
    """
    if priors is None:
        raise ValueError(f"the {rule} rule requires priors")
    priors = np.asarray(priors, dtype=np.float64)
    n_classes = shape[2]
    if priors.shape == (n_classes,):
        priors = priors.reshape(1, 1, -1)
    elif priors.shape != tuple(shape):
        raise ValueError(
            f"priors must be a length-{n_classes} vector or an array of the "
            f"probabilities' shape {tuple(shape)}, got shape {priors.shape}"
        )
    if np.any(priors < 0):
        raise ValueError(f"priors must be non-negative, found {float(np.min(priors))!r}")
    return priors


def bayes_rule(
    probs: np.ndarray, priors: Optional[np.ndarray] = None, strength: float = 1.0
) -> np.ndarray:
    """Maximum a-posteriori (MAP) decision: argmax_y f_z(y|x).

    Takes a validated (H, W, C) field; *priors* and *strength* are ignored.
    """
    return np.argmax(probs, axis=2).astype(np.int64)


def maximum_likelihood_rule(
    probs: np.ndarray,
    priors: Optional[np.ndarray] = None,
    strength: float = 1.0,
) -> np.ndarray:
    """Maximum-Likelihood decision: argmax_y f_z(y|x) / p̂_z(y).

    Parameters
    ----------
    probs:
        Validated (H, W, C) posterior (softmax) field.
    priors:
        Either an (H, W, C) position-specific prior field (the paper's
        position-wise application) or a length-C vector of global priors.
    strength:
        Ignored: ML is the interpolated rule at full strength.

    The priors are floored at ``1e-12`` before the division.
    """
    priors = _prior_field(priors, probs.shape, "ml")
    likelihood = probs / np.maximum(priors, 1e-12)
    return np.argmax(likelihood, axis=2).astype(np.int64)


def interpolated_rule(
    probs: np.ndarray,
    priors: Optional[np.ndarray] = None,
    strength: float = 1.0,
) -> np.ndarray:
    """Decision rule interpolating between Bayes (strength 0) and ML (strength 1).

    Takes a validated (H, W, C) field and the priors the ML rule takes.  The
    posterior is divided by ``priors ** strength``; intermediate strengths
    correspond to milder cost asymmetries, which is the knob explored by the
    cost-sweep ablation of the Fig. 5 benchmark.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError("strength must be in [0, 1]")
    priors = _prior_field(priors, probs.shape, "interpolated")
    scaled = probs / np.maximum(priors, 1e-12) ** strength
    return np.argmax(scaled, axis=2).astype(np.int64)


#: The rules by config name (``evaluation.rules``).
RULES = {"bayes": bayes_rule, "ml": maximum_likelihood_rule, "interpolated": interpolated_rule}
