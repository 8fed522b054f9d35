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

``r2_score`` and ``residual_std`` are checked against
``scipy.stats.linregress`` on seeded 1-D data: for an ordinary least-squares
line, R² is the squared correlation ``rvalue²``, and the residual sum of
squares is ``stderr² · Sxx · (n − 2)``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from repro.evaluation.regression import r2_score, residual_std
from repro.models.linear import LinearRegression
from repro.models.scaler import StandardScaler

#: Largest allowed |Δ| of any coefficient or the intercept, per penalty α.
COEF_BOUND = {1e-3: 1e-8, 1.0: 1e-11}


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
