"""Fit-level caching: reuse fitted meta-models across protocol re-runs.

The evaluation protocols (Table I, the time-dynamic protocol) fit many small
meta-models per run.  Those fits are pure functions of (stage-1 extraction
payload, model constructor parameters, split descriptor): the model's internal
RNG is derived from the per-run split seed, never from a shared protocol
stream, so loading a previously fitted model instead of re-fitting is
RNG-stream-neutral and bitwise identical.  :class:`FitCache` exploits that by
keying each fit on exactly those three components and persisting the fitted
state (:meth:`to_state`) through the :class:`~repro.store.store.ResultStore`.
:func:`fit_model` is the one fit call of both protocols: through the cache
when one is attached and the model supports it, in place otherwise.

A store-backed sweep that varies only evaluation-side fields (``n_runs``,
``train_fraction``, model lists) therefore reuses not just extraction shards
but every previously performed meta-model fit.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.store.keys import content_key, stage1_payload
from repro.store.store import ResultStore


class FitCache:
    """Store-backed cache of fitted meta-models for one experiment config.

    Parameters
    ----------
    store:
        The backing :class:`ResultStore`.
    config_dict:
        The experiment config dict; only its stage-1 payload enters the fit
        keys (protocol-side fields cannot change what a fit produces given
        the same split descriptor).
    """

    def __init__(self, store: ResultStore, config_dict: Dict[str, object]) -> None:
        self.store = store
        self._stage1 = stage1_payload(config_dict)
        self._kind = config_dict["kind"]
        self.counters = {"hits": 0, "misses": 0}

    # ------------------------------------------------------------------ ---
    @staticmethod
    def supports(model: object) -> bool:
        """Whether *model* exposes the state protocol needed for caching.

        Custom registry entries may return plain estimators without state
        support; those fall back to fitting in place.
        """
        return (
            callable(getattr(model, "param_state", None))
            and callable(getattr(model, "to_state", None))
            and callable(getattr(model, "fit", None))
            and callable(getattr(type(model), "from_state", None))
        )

    def fit_key(self, model: object, split: Dict[str, object]) -> str:
        """Cache key of one fit: (stage-1 payload, model identity, split)."""
        return content_key(
            "fit",
            {"stage1": self._stage1, "model": model.param_state(), "split": split},
        )

    def fit_or_load(self, model: object, train, split: Dict[str, object]):
        """Return a fitted model: loaded from the store, or fitted and stored
        (:meth:`ResultStore.get_or_compute`; a stale payload re-fits).

        *split* must describe the training split deterministically (protocol
        name, split seed, fractions, ...) — it is the only thing besides the
        model parameters that distinguishes fits on one extraction payload.
        """
        def fit(indices):
            model.fit(train)
            return [model]

        (fitted,), (hit,) = self.store.get_or_compute(
            [self.fit_key(model, split)],
            fit,
            provenance=[{"type": "fit", "kind": self._kind, "split": split}],
            encode=lambda fitted: fitted.to_state(),
            decode=type(model).from_state,
        )
        self.counters["hits" if hit else "misses"] += 1
        return fitted


def fit_model(model: object, train, split: Dict[str, object], fit_cache: Optional[FitCache]):
    """Return *model* fitted on *train*.

    With a *fit_cache* and a model that has the state protocol the fit goes
    through :meth:`FitCache.fit_or_load` (*split* enters its key);
    otherwise (no store, or a custom factory's plain estimator) *model* is
    fitted in place.
    """
    if fit_cache is not None and fit_cache.supports(model):
        return fit_cache.fit_or_load(model, train, split)
    model.fit(train)
    return model


__all__ = ["FitCache", "fit_model"]
