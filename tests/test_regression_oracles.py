"""Linear fits and regression scores against oracles this repo did not write.

``LinearRegression`` solves the ridge normal equations ``(DᵀD + αP) β = Dᵀy``
(``D`` the design with an intercept column, ``P`` the identity with the
intercept's entry zeroed).  The same minimiser is the least-squares solution
of the augmented system ``[D; √α·P] β = [y; 0]``, which
``scipy.linalg.lstsq`` solves by an SVD of the design itself.  The normal
equations square the design's condition number, so the two agree only to
about ``σ_max(D)² / α`` ulps: on standardised designs of a few hundred rows
the worst of 40 seeds differs by 4.3e-10 at α = 1e-3 and 6.2e-13 at α = 1,
and :data:`COEF_BOUND` allows about twenty times that.  Every design carries
an exact identity between two columns (``V_mean = 1 − pmax_mean`` in the
Table I features), so the α > 0 fit is the only thing making the problem
well posed.

``LogisticRegression`` minimises ``Σ sᵢ(log(1 + e^{zᵢ}) − yᵢzᵢ) + ½(λ +
RIDGE_FLOOR)|w|²`` with a free intercept.  Two oracles check the fit it
returns: the first-order condition ``Dᵀ(s·(σ(z) − y)) + (λ + RIDGE_FLOOR)·w
= 0`` (the intercept's entry unpenalised), evaluated here with
``scipy.special.expit``, must hold to the fit's ``tol``; and the
objective at the fit must match what ``scipy.optimize.minimize`` (L-BFGS-B
with the analytic gradient) reaches on the same objective to
:data:`OBJECTIVE_BOUND`, relative.  Over the cases below the fits' largest
gradient entry is 1.8e-7 against ``tol`` = 1e-6, and the largest relative
gap is 1.7e-10, scipy's the lower: the fit stops once its gradient is under
``tol``, and at penalty 0 the floor leaves directions that cost almost
nothing, so the bound allows about six times that gap.

``r2_score`` and ``residual_std`` are checked against
``scipy.stats.linregress`` on seeded 1-D data: for an ordinary least-squares
line, R² is the squared correlation ``rvalue²``, and the residual sum of
squares is ``stderr² · Sxx · (n − 2)``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.special
import scipy.stats

from repro.evaluation.regression import r2_score, residual_std
from repro.models.linear import LinearRegression
from repro.models.logistic import RIDGE_FLOOR, LogisticRegression
from repro.models.scaler import StandardScaler

#: Largest allowed |Δ| of any coefficient or the intercept, per penalty α.
COEF_BOUND = {1e-3: 1e-8, 1.0: 1e-11}

#: Largest allowed relative gap between the logistic objective at the fit
#: and at scipy's minimiser.
OBJECTIVE_BOUND = 1e-9


def _augmented_lstsq(x: np.ndarray, y: np.ndarray, alpha: float):
    """(intercept, coefficients) of ``[D; √α·P] β = [y; 0]`` by SVD."""
    n_samples, n_features = x.shape
    design = np.hstack([np.ones((n_samples, 1)), x])
    ridge = np.hstack([np.zeros((n_features, 1)), np.sqrt(alpha) * np.eye(n_features)])
    solution, *_ = scipy.linalg.lstsq(
        np.vstack([design, ridge]), np.concatenate([y, np.zeros(n_features)])
    )
    return solution[0], solution[1:]


def _assert_matches_oracle(x: np.ndarray, y: np.ndarray, alpha: float) -> None:
    model = LinearRegression(alpha=alpha).fit(x, y)
    intercept, coef = _augmented_lstsq(x, y, alpha)
    assert abs(model.intercept_ - intercept) <= COEF_BOUND[alpha]
    np.testing.assert_allclose(model.coef_, coef, rtol=0.0, atol=COEF_BOUND[alpha])


def _seeded_design(seed: int):
    """A standardised 300 x 8 design whose last two raw columns sum to 1."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(300, 8))
    x[:, 7] = 1.0 - x[:, 6]
    y = x @ rng.normal(size=8) + rng.normal(scale=0.1, size=300)
    return StandardScaler().fit(x).transform(x), y


@pytest.mark.parametrize("alpha", sorted(COEF_BOUND))
@pytest.mark.parametrize("seed", range(8))
def test_ridge_matches_augmented_lstsq_on_seeded_designs(seed, alpha):
    x, y = _seeded_design(seed)
    _assert_matches_oracle(x, y, alpha)


@pytest.mark.parametrize("alpha", sorted(COEF_BOUND))
def test_ridge_matches_augmented_lstsq_on_cityscapes_like_features(
    metaseg_pipeline, cityscapes_like, alpha
):
    """The Table I feature matrix as the meta regressor sees it: all 44
    metrics of the validation frames, standardised, IoU as the target."""
    dataset = metaseg_pipeline.extract_dataset(cityscapes_like.val_samples())
    x = StandardScaler().fit(dataset.features).transform(dataset.features)
    assert np.abs(dataset.feature("V_mean") + dataset.feature("pmax_mean") - 1.0).max() < 1e-12
    _assert_matches_oracle(x, dataset.target_iou(), alpha)


@pytest.mark.parametrize("seed", range(6))
def test_r2_and_sigma_match_linregress(seed):
    rng = np.random.default_rng(seed)
    n_samples = 20 + 15 * seed
    x = rng.normal(size=n_samples)
    y = rng.normal() * x + rng.normal(scale=0.5, size=n_samples)
    line = scipy.stats.linregress(x, y)
    predictions = line.intercept + line.slope * x
    sxx = float(np.sum((x - x.mean()) ** 2))
    assert r2_score(y, predictions) == pytest.approx(line.rvalue**2, rel=1e-12, abs=1e-14)
    assert residual_std(y, predictions) == pytest.approx(
        line.stderr * np.sqrt(sxx * (n_samples - 2) / n_samples), rel=1e-12
    )


# ------------------------------------------------------------ logistic ---
def _sample_weights(y: np.ndarray, class_weight) -> np.ndarray:
    """``"balanced"``: each class weighs n / (2 · its count), else 1."""
    if class_weight is None:
        return np.ones(y.size)
    n_samples = y.size
    return np.where(y == 1, n_samples / (2 * y.sum()), n_samples / (2 * (n_samples - y.sum())))


def _logistic_objective(beta, design, y, weights, ridge):
    """The floored objective and its gradient at ``beta = (b, w)``."""
    z = design @ beta
    value = weights @ (np.logaddexp(0.0, z) - y * z) + 0.5 * ridge * (beta[1:] @ beta[1:])
    gradient = design.T @ (weights * (scipy.special.expit(z) - y))
    gradient[1:] += ridge * beta[1:]
    return value, gradient


def _assert_logistic_matches_oracles(x, y, penalty, class_weight) -> None:
    model = LogisticRegression(penalty=penalty, class_weight=class_weight).fit(x, y)
    design = np.hstack([np.ones((y.size, 1)), x])
    weights = _sample_weights(y, class_weight)
    ridge = penalty + RIDGE_FLOOR
    beta = np.r_[model.intercept_, model.coef_]
    value, gradient = _logistic_objective(beta, design, y, weights, ridge)
    assert model.converged_
    assert np.abs(gradient).max() < model.tol
    oracle = scipy.optimize.minimize(
        _logistic_objective, np.zeros(design.shape[1]), args=(design, y, weights, ridge),
        jac=True, method="L-BFGS-B",
        options={"gtol": 1e-10, "ftol": 1e-16, "maxiter": 100_000, "maxcor": 50},
    )
    assert abs(value - oracle.fun) <= OBJECTIVE_BOUND * abs(oracle.fun)


def _seeded_classification(seed: int):
    """A standardised 400 x 8 design (two raw columns summing to 1) and
    labels drawn from a logistic model of it."""
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(size=(400, 8))
    x[:, 7] = 1.0 - x[:, 6]
    x = StandardScaler().fit(x).transform(x)
    logits = x @ rng.normal(size=8) - 1.0
    return x, (rng.random(400) < scipy.special.expit(logits)).astype(np.int64)


@pytest.mark.parametrize("class_weight", [None, "balanced"])
@pytest.mark.parametrize("penalty", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_logistic_fit_meets_first_order_condition_and_scipy(seed, penalty, class_weight):
    x, y = _seeded_classification(seed)
    _assert_logistic_matches_oracles(x, y, penalty, class_weight)


@pytest.mark.parametrize("class_weight", [None, "balanced"])
@pytest.mark.parametrize("penalty", [0.0, 1.0])
def test_logistic_fit_matches_oracles_on_cityscapes_like_features(
    metaseg_pipeline, cityscapes_like, penalty, class_weight
):
    """The meta classifier's problem: all 44 standardised metrics of the
    validation frames, IoU > 0 as the label."""
    dataset = metaseg_pipeline.extract_dataset(cityscapes_like.val_samples())
    x = StandardScaler().fit(dataset.features).transform(dataset.features)
    y = dataset.target_iou0()
    assert 0 < y.sum() < y.size
    _assert_logistic_matches_oracles(x, y, penalty, class_weight)
