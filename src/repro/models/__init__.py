"""From-scratch classical ML models used as meta classifiers / regressors.

The paper performs its meta tasks with small classical models: (penalised)
logistic regression and linear regression (Section II), gradient boosting and
shallow neural networks with l2 penalisation (Section III).  This subpackage
implements all of them with numpy only, together with a standard scaler, so
the library has no scikit-learn dependency.
"""

from repro.models.base import ClassifierMixin, RegressorMixin, check_is_fitted
from repro.models.scaler import StandardScaler
from repro.models.linear import LinearRegression
from repro.models.logistic import LogisticRegression
from repro.models.tree import DecisionTreeRegressor
from repro.models.gradient_boosting import (
    GradientBoostingRegressor,
    GradientBoostingClassifier,
)
from repro.models.neural_network import MLPClassifier, MLPRegressor

__all__ = [
    "ClassifierMixin",
    "RegressorMixin",
    "check_is_fitted",
    "StandardScaler",
    "LinearRegression",
    "LogisticRegression",
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "GradientBoostingClassifier",
    "MLPClassifier",
    "MLPRegressor",
]
