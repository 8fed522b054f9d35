"""Solver fuzz for the damped-Newton logistic regression.

The oracle below is the solver ``LogisticRegression.fit`` replaced, kept here
verbatim in function form: full-batch gradient descent with a backtracking
line search, capped at the 300 steps the Table I meta classifier used.  On
seeded datasets covering collinear columns, heavy class imbalance,
``class_weight="balanced"``, a single feature, fewer samples than features
and perfectly separable classes, every Newton fit must

* report ``converged_`` within 50 steps, with the gradient of the objective
  it minimises (the l2 penalty plus :data:`RIDGE_FLOOR`) below ``tol`` in
  the infinity norm;
* reach an objective no worse than the oracle's (1e-9 relative), and, where
  the penalised likelihood has a minimiser, an exact penalised negative
  log-likelihood (without the floor) no worse than the oracle's;
* on separable data without a penalty, where the likelihood has no
  minimiser, terminate with finite coefficients instead of raising.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.logistic import RIDGE_FLOOR, LogisticRegression, _sigmoid

N_SEEDS = 8
REL_TOL = 1e-9

#: Case name -> whether the unpenalised likelihood has a minimiser.
CASES = {
    "generic": True,
    "collinear": True,
    "imbalanced": True,
    "one_feature": True,
    "n_lt_d": False,
    "separable": False,
}


def _gradient_descent_fit(x, y, penalty, class_weight, max_iter=300, tol=1e-6, learning_rate=1.0):
    """The former ``LogisticRegression.fit``: weights with the intercept first."""
    y = y.astype(np.float64)
    design = np.hstack([np.ones((x.shape[0], 1)), x])
    n_samples, n_features = design.shape
    if class_weight == "balanced":
        positives = max(1.0, float(y.sum()))
        negatives = max(1.0, float((1 - y).sum()))
        sample_weight = np.where(y == 1, n_samples / (2 * positives), n_samples / (2 * negatives))
    else:
        sample_weight = np.ones(n_samples)

    def loss_and_grad(weights):
        p = _sigmoid(design @ weights)
        eps = 1e-12
        loss = -np.sum(sample_weight * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        grad = design.T @ (sample_weight * (p - y))
        penalised = weights.copy()
        penalised[0] = 0.0
        loss += 0.5 * penalty * float(penalised @ penalised)
        grad += penalty * penalised
        return loss, grad

    weights = np.zeros(n_features)
    loss, grad = loss_and_grad(weights)
    step = learning_rate / n_samples
    for _iteration in range(max_iter):
        if np.max(np.abs(grad)) < tol:
            break
        for _ in range(30):
            candidate = weights - step * grad
            new_loss, new_grad = loss_and_grad(candidate)
            if new_loss <= loss:
                weights, loss, grad = candidate, new_loss, new_grad
                step *= 1.2
                break
            step *= 0.5
        else:
            break
    return weights, sample_weight


def _dataset(case: str, rng: np.random.Generator):
    if case == "generic":
        n, d = int(rng.integers(80, 400)), int(rng.integers(2, 20))
        x = rng.normal(size=(n, d)) * rng.uniform(0.2, 3.0, size=d)
        y = x @ rng.normal(size=d) + rng.normal(size=n) > 0
    elif case == "collinear":
        n, d = int(rng.integers(100, 300)), int(rng.integers(2, 8))
        base = rng.normal(size=(n, d))
        x = np.hstack([base, base[:, :1], base @ rng.normal(size=(d, 2))])
        y = base[:, 0] - base[:, 1] + rng.normal(size=n) > 0
    elif case == "imbalanced":
        n, d = int(rng.integers(300, 600)), int(rng.integers(2, 10))
        x = rng.normal(size=(n, d))
        y = x[:, 0] + 0.7 * rng.normal(size=n) > 2.0
    elif case == "one_feature":
        n = int(rng.integers(30, 300))
        x = rng.normal(size=(n, 1))
        y = x[:, 0] + rng.normal(size=n) > rng.uniform(-1.0, 1.0)
    elif case == "n_lt_d":
        n, d = int(rng.integers(8, 30)), int(rng.integers(31, 60))
        x = rng.normal(size=(n, d))
        y = rng.random(n) < 0.5
    else:  # separable
        n, d = int(rng.integers(40, 300)), int(rng.integers(1, 10))
        x = rng.normal(size=(n, d))
        direction = rng.normal(size=d)
        x[:2] = [direction, -direction]  # both classes always present
        return x, (x @ direction > 0).astype(np.int64)
    y[:2] = [True, False]  # both classes always present
    return x, y.astype(np.int64)


def _objective(weights, x, y, sample_weight, penalty):
    """Exact (``logaddexp``) penalised negative log-likelihood."""
    z = weights[0] + x @ weights[1:]
    nll = sample_weight @ (np.logaddexp(0.0, z) - y * z)
    return float(nll + 0.5 * penalty * (weights[1:] @ weights[1:]))


def _gradient(weights, x, y, sample_weight, penalty):
    p = _sigmoid(weights[0] + x @ weights[1:])
    residual = sample_weight * (p - y)
    return np.concatenate([[residual.sum()], x.T @ residual + penalty * weights[1:]])


@pytest.mark.fuzz
@pytest.mark.parametrize("class_weight", [None, "balanced"])
@pytest.mark.parametrize("penalty", [0.0, 1.0])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_newton_fit_beats_gradient_descent_oracle(seed, case, penalty, class_weight):
    rng = np.random.default_rng([seed, sorted(CASES).index(case)])
    x, y = _dataset(case, rng)
    model = LogisticRegression(penalty=penalty, class_weight=class_weight).fit(x, y)
    weights = np.concatenate([[model.intercept_], model.coef_])
    oracle, sample_weight = _gradient_descent_fit(x, y, penalty, class_weight)

    assert np.all(np.isfinite(weights))
    assert model.converged_ and 1 <= model.n_iter_ <= 50
    solved = penalty + RIDGE_FLOOR
    assert np.max(np.abs(_gradient(weights, x, y, sample_weight, solved))) < model.tol

    new = _objective(weights, x, y, sample_weight, solved)
    old = _objective(oracle, x, y, sample_weight, solved)
    assert new <= old + REL_TOL * abs(old)
    if CASES[case] or penalty > 0:
        new = _objective(weights, x, y, sample_weight, penalty)
        old = _objective(oracle, x, y, sample_weight, penalty)
        assert new <= old + REL_TOL * abs(old)
