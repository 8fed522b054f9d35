"""The construction shared by meta classification and meta regression.

Both meta tasks fit a model family on the standardised segment metrics of a
:class:`~repro.core.dataset.MetricsDataset`; only the targets and the scores
differ.  :class:`MetaModel` holds what the two tasks share: the
``method -> Family`` table each task declares, the constructor checks, the
model construction, ``evaluate``, the state protocol (``param_state`` /
``to_state`` / ``from_state``) and the registry factories.  The tasks keep
their own ``fit``, prediction and ``evaluate_fitted`` methods.
"""

from __future__ import annotations

import inspect
from typing import ClassVar, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.models.scaler import StandardScaler
from repro.utils.rng import RandomState, as_rng

#: Constructor keywords the protocols set themselves; ``model_params`` may
#: not carry them.
PROTOCOL_PARAMS = ("method", "penalty", "feature_subset", "random_state")


class Family(NamedTuple):
    """One model family of a meta task."""

    #: The estimator class (``fit``/``predict`` on standardised features).
    model: type
    #: Keyword receiving the meta model's l2 penalty, or ``None`` when the
    #: family has no penalty (the meta model then records ``penalty = 0.0``).
    penalty: Optional[str]
    #: Whether the model takes a ``random_state`` derived from the meta
    #: model's seed.
    seeded: bool
    #: Default keyword arguments; ``model_params`` overrides them key by key.
    defaults: Mapping[str, object]


#: Defaults of the Section III families, shared by both tasks.
BOOSTING_DEFAULTS = {"n_estimators": 60, "max_depth": 3, "learning_rate": 0.1,
                     "min_samples_leaf": 5}
NETWORK_DEFAULTS = {"hidden_layer_sizes": (32,), "n_epochs": 150, "learning_rate": 1e-2}


class MetaModel:
    """Base of :class:`~repro.core.meta_classification.MetaClassifier` and
    :class:`~repro.core.meta_regression.MetaRegressor`.

    Parameters
    ----------
    method:
        A key of the task's :attr:`FAMILIES` table.
    penalty:
        l2 penalty strength, passed to the family's penalty keyword (a
        family without one, gradient boosting, records ``0.0``).
    feature_subset:
        Optional list of feature names to restrict the model to.
    random_state:
        Seed the stochastic families (gradient boosting subsampling,
        neural-network initialisation) derive their model seed from.
    model_params:
        Extra keyword arguments for the family's model, merged key by key
        over the family defaults.
    """

    #: ``method -> Family`` of the task.
    FAMILIES: ClassVar[Dict[str, Family]] = {}
    #: The task's own constructor parameters, stored in ``param_state``
    #: after ``feature_subset``.
    TASK_PARAMS: ClassVar[Tuple[str, ...]] = ()

    def __init__(
        self,
        method: str,
        penalty: float = 0.0,
        feature_subset: Optional[Sequence[str]] = None,
        random_state: RandomState = 0,
        **model_params,
    ) -> None:
        if method not in self.FAMILIES:
            raise ValueError(f"method must be one of {tuple(self.FAMILIES)}, got {method!r}")
        if penalty < 0:
            raise ValueError("penalty must be non-negative")
        self.method = method
        self.penalty = float(penalty) if self.FAMILIES[method].penalty else 0.0
        self.feature_subset = list(feature_subset) if feature_subset is not None else None
        self.random_state = random_state
        self.model_params = model_params
        self.scaler_: Optional[StandardScaler] = None
        self.model_ = None

    def _build_model(self):
        family = self.FAMILIES[self.method]
        # Drawn for every family, so a Generator passed as random_state
        # advances the same way whatever the method.
        seed = int(as_rng(self.random_state).integers(0, 2**31 - 1))
        params = dict(family.defaults)
        if family.penalty:
            params[family.penalty] = self.penalty
        if family.seeded:
            params["random_state"] = seed
        params.update(self.model_params)
        return family.model(**params)

    def _fit_scaled(self, features, targets) -> None:
        """Fit the scaler and a fresh family model on raw features."""
        self.scaler_ = StandardScaler().fit(features)
        self.model_ = self._build_model()
        self.model_.fit(self.scaler_.transform(features), targets)

    def _scaled_features(self, dataset):
        if self.model_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted yet")
        return self.scaler_.transform(dataset.feature_matrix(self.feature_subset))

    def evaluate(self, train, test):
        """Fit on *train* and score both splits (the Table I protocol):
        ACC/AUROC for classification, σ/R² for regression."""
        self.fit(train)
        return self.evaluate_fitted(train, test)

    # ------------------------------------------------------------------ ---
    def param_state(self) -> dict:
        """Canonical constructor parameters (the identity part of a fit key).

        Raises TypeError for non-integer seeds: an ambiguous seed must never
        silently alias two different fits under one cache key.
        """
        from repro.models.state import serializable_seed

        state = {
            "type": type(self).__name__,
            "method": self.method,
            "penalty": self.penalty,
            "feature_subset": self.feature_subset,
        }
        for name in self.TASK_PARAMS:
            state[name] = getattr(self, name)
        state["random_state"] = serializable_seed(self.random_state)
        state["model_params"] = dict(self.model_params)
        return state

    def to_state(self) -> dict:
        """JSON-serialisable fitted state (bitwise-exact round-trip)."""
        if self.model_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted yet")
        from repro.models.state import model_to_state

        state = self.param_state()
        state["scaler"] = self.scaler_.to_state()
        state["model"] = model_to_state(self.model_)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "MetaModel":
        """Rebuild a fitted meta model from its :meth:`to_state` form."""
        from repro.models.state import expect_state_type, model_from_state

        expect_state_type(state, cls)
        meta = cls(
            method=state["method"],
            penalty=state["penalty"],
            feature_subset=state["feature_subset"],
            random_state=state["random_state"],
            **{name: state[name] for name in cls.TASK_PARAMS},
            **state["model_params"],
        )
        meta.scaler_ = StandardScaler.from_state(state["scaler"])
        meta.model_ = model_from_state(state["model"])
        return meta

    # ------------------------------------------------------------------ ---
    @classmethod
    def accepted_params(cls, method: str) -> Tuple[str, ...]:
        """The ``model_params`` keys *method* accepts: its model's keywords
        and the task's own parameters, less :data:`PROTOCOL_PARAMS`."""
        names = [*inspect.signature(cls.FAMILIES[method].model).parameters, *cls.TASK_PARAMS]
        return tuple(name for name in names if name not in PROTOCOL_PARAMS)

    @classmethod
    def register_families(cls, registry) -> None:
        """Register one named factory per family in *registry*.

        A factory is the constructor with the method baked in, so configs
        select a family purely by name.  ``factory.meta_model`` and
        ``factory.method`` let config checks find the family behind a name.
        """
        for method in cls.FAMILIES:
            registry.register(method, _family_factory(cls, method))


def _family_factory(cls: type, method: str):
    def factory(**kwargs) -> MetaModel:
        return cls(method=method, **kwargs)

    task = cls.__name__[len("Meta"):].lower()
    factory.__name__ = f"{method}_meta_{task}"
    factory.__doc__ = f"{cls.__name__} factory for the {method!r} model family."
    factory.meta_model = cls
    factory.method = method
    return factory
