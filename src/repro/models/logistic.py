"""Binary logistic regression (unpenalised and l2-penalised).

Meta classification in Section II of the paper is performed with logistic
models; Table I reports both a "penalized" and an "unpenalized" variant.  We
fit by damped Newton (IRLS): the Hessian is at most 45x45, so each step is
one weighted Gram matrix and one dense solve, halved until the loss does not
increase.  With :data:`RIDGE_FLOOR` keeping separable fits finite,
"unpenalized" means the maximum-likelihood fit wherever one exists, never an
early-stopped iterate.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import ClassifierMixin, check_is_fitted
from repro.obs import METRICS
from repro.utils.validation import check_binary_labels, check_feature_matrix

#: l2 penalty added to every fit's weights (never the intercept).  Separable
#: data has no unpenalised maximiser; the floor bounds its weights (close to
#: the maximum-margin direction) and moves other fits by ~1e-9 relative loss.
RIDGE_FLOOR = 1e-6


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class LogisticRegression(ClassifierMixin):
    """Binary logistic regression fitted by damped Newton steps.

    Minimises ``sum_i s_i (log(1 + e^{z_i}) - y_i z_i)`` plus ``(penalty +
    RIDGE_FLOOR) / 2 * |w|^2`` over the weights ``w`` and a free intercept
    (``s`` are the sample weights).  ``n_iter_`` is the number of Newton
    steps taken and ``converged_`` whether the gradient's infinity norm fell
    below ``tol``; an unconverged fit increments ``fit.unconverged`` on
    :data:`repro.obs.METRICS`.

    Parameters
    ----------
    penalty:
        l2 penalty strength applied to the weights (not the intercept);
        ``0`` gives the unpenalised model of Table I.
    max_iter:
        Maximum number of Newton steps.
    tol:
        Convergence tolerance on the gradient's infinity norm.
    class_weight:
        ``None`` for unweighted fitting, or ``"balanced"`` to reweight samples
        inversely proportional to class frequencies (useful when false
        positive segments are rare).
    """

    def __init__(
        self,
        penalty: float = 0.0,
        max_iter: int = 100,
        tol: float = 1e-6,
        class_weight: str = None,
    ) -> None:
        if penalty < 0:
            raise ValueError(f"penalty must be non-negative, got {penalty}")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if class_weight not in (None, "balanced"):
            raise ValueError("class_weight must be None or 'balanced'")
        self.penalty = float(penalty)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.class_weight = class_weight
        self.coef_ = None
        self.intercept_ = 0.0
        self.n_iter_ = 0
        self.converged_ = False

    # ------------------------------------------------------------------ ---
    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit the classifier on features *x* and binary labels *y*."""
        x = check_feature_matrix(x)
        y = check_binary_labels(y).astype(np.float64)
        if y.shape[0] != x.shape[0]:
            raise ValueError("X and y must have the same number of samples")
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        n_samples, n_features = design.shape

        if self.class_weight == "balanced":
            positives = max(1.0, float(y.sum()))
            negatives = max(1.0, float((1 - y).sum()))
            sample_weight = np.where(y == 1, n_samples / (2 * positives), n_samples / (2 * negatives))
        else:
            sample_weight = np.ones(n_samples)
        ridge = np.r_[0.0, np.full(n_features - 1, self.penalty + RIDGE_FLOOR)]  # free intercept

        def objective(weights: np.ndarray) -> float:
            z = design @ weights
            nll = sample_weight @ (np.logaddexp(0.0, z) - y * z)
            return float(nll + 0.5 * (ridge @ (weights * weights)))

        weights = np.zeros(n_features)
        loss = objective(weights)
        self.n_iter_ = 0
        while True:
            p = _sigmoid(design @ weights)
            grad = design.T @ (sample_weight * (p - y)) + ridge * weights
            self.converged_ = bool(np.max(np.abs(grad)) < self.tol)
            if self.converged_ or self.n_iter_ == self.max_iter:
                break
            # S.T @ S with S = sqrt(W) X: one symmetric rank-k product.
            scaled = design * np.sqrt(sample_weight * p * (1.0 - p))[:, None]
            direction = np.linalg.solve(scaled.T @ scaled + np.diag(ridge), grad)
            for halving in range(40):
                candidate = weights - 0.5**halving * direction
                new_loss = objective(candidate)
                if new_loss <= loss:
                    break
            else:
                break
            weights, loss = candidate, new_loss
            self.n_iter_ += 1
        if not self.converged_:
            METRICS.counter("fit.unconverged").inc()
        self.intercept_ = float(weights[0])
        self.coef_ = weights[1:]
        return self

    # ------------------------------------------------------------------ ---
    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Raw linear scores (log-odds)."""
        check_is_fitted(self, "coef_")
        x = check_feature_matrix(x, allow_empty=True)
        if x.shape[1] != self.coef_.shape[0]:
            raise ValueError(f"expected {self.coef_.shape[0]} features, got {x.shape[1]}")
        return x @ self.coef_ + self.intercept_

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Probability of the positive class."""
        return _sigmoid(self.decision_function(x))

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(x) >= threshold).astype(np.int64)

    # ------------------------------------------------------------------ ---
    def to_state(self) -> dict:
        """JSON-serialisable fitted state (bitwise-exact round-trip)."""
        check_is_fitted(self, "coef_")
        from repro.models.state import encode_array

        return {
            "type": type(self).__name__,
            "params": {
                "penalty": self.penalty,
                "max_iter": self.max_iter,
                "tol": self.tol,
                "class_weight": self.class_weight,
            },
            "coef": encode_array(self.coef_),
            "intercept": self.intercept_,
            "n_iter": self.n_iter_,
            "converged": self.converged_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "LogisticRegression":
        """Rebuild a fitted model; states of the former gradient-descent solver are refused."""
        from repro.models.state import decode_array, expect_state_type

        expect_state_type(state, cls)
        if "converged" not in state or "learning_rate" in state["params"]:
            raise ValueError("stale LogisticRegression state: gradient-descent format "
                             "('learning_rate', no 'converged'); refit the model")
        model = cls(**state["params"])
        model.coef_ = decode_array(state["coef"])
        model.intercept_ = float(state["intercept"])
        model.n_iter_ = int(state["n_iter"])
        model.converged_ = bool(state["converged"])
        return model
