"""String-keyed registries of the experiment building blocks.

The unified experiment API resolves every pluggable component — network
profile, dataset substrate, metric group, meta-model variant, decision rule —
through a named :class:`Registry`.  Concrete implementations self-register at
import time with the :meth:`Registry.register` decorator, the way named
BuilderConfigs make dataset variants declarative:

    from repro.api.registry import NETWORK_PROFILES

    @NETWORK_PROFILES.register("xception65")
    def xception65_profile() -> NetworkProfile:
        ...

Config files then refer to components purely by name
(``{"network": {"profile": "xception65"}}``), and new variants plug in
without touching any pipeline plumbing.  ``available()`` / ``describe()``
make every registry introspectable (the ``python -m repro list`` command is
a thin wrapper around them).

This module is intentionally dependency-free (stdlib only) so any part of
the library can import it for self-registration without import cycles; the
built-in implementations are imported lazily on first lookup.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple, TypeVar

EntryT = TypeVar("EntryT")

#: Sentinel distinguishing "no object passed" (decorator mode) from
#: registering a literal ``None`` entry (e.g. the "all features" group).
_MISSING = object()


class RegistryError(KeyError):
    """Lookup of an unknown name or registration under a taken name."""


class Registry:
    """A string-keyed collection of interchangeable components.

    Parameters
    ----------
    kind:
        Short machine-readable name of the registry (``"networks"``, ...),
        used in error messages and by the CLI.
    description:
        One-line human description shown by ``python -m repro list``.
    """

    def __init__(self, kind: str, description: str = "") -> None:
        self.kind = kind
        self.description = description
        self._entries: Dict[str, object] = {}

    # ------------------------------------------------------------------ ---
    def register(self, name: str, obj: object = _MISSING):
        """Register *obj* under *name*; usable as decorator or plain call.

        As a decorator (``@REGISTRY.register("name")``) it returns the
        decorated object unchanged; a plain call registers any value,
        including ``None``.  Registering a name twice is an error: silently
        replacing a component would make configs ambiguous.
        """
        if not isinstance(name, str) or not name:
            raise TypeError("registry names must be non-empty strings")

        def _add(entry):
            if name in self._entries:
                raise RegistryError(
                    f"{self.kind!r} registry already has an entry named {name!r}"
                )
            self._entries[name] = entry  # repro: allow[concurrency-shared-state] -- registration happens at import time, before worker threads exist
            return entry

        if obj is _MISSING:
            return _add
        return _add(obj)

    def get(self, name: str) -> object:
        """Return the entry registered under *name*.

        Raises :class:`RegistryError` with the list of available names when
        the name is unknown.
        """
        _load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} entry {name!r}; "
                f"available: {', '.join(self.available()) or '(none)'}"
            ) from None

    def available(self) -> List[str]:
        """Sorted names of all registered entries."""
        _load_builtins()
        return sorted(self._entries)

    def describe(self, name: str) -> str:
        """One-line description of an entry.

        Callables are described by the first line of their docstring; plain
        data entries (e.g. metric-group tuples) by their repr.
        """
        entry = self.get(name)
        doc = getattr(entry, "__doc__", None) if callable(entry) else None
        if not doc:
            return repr(entry)
        return doc.strip().splitlines()[0]

    def items(self) -> List[Tuple[str, object]]:
        """(name, entry) pairs sorted by name."""
        _load_builtins()
        return [(name, self._entries[name]) for name in self.available()]

    # ------------------------------------------------------------------ ---
    def __contains__(self, name: str) -> bool:
        _load_builtins()
        return name in self._entries

    def __len__(self) -> int:
        _load_builtins()
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, n_entries={len(self._entries)})"


# --------------------------------------------------------------------------
# The library's registries.  Entry contracts:
#
# * NETWORK_PROFILES   — zero-argument factories returning a NetworkProfile
#                        (wrapped in a simulated network by the Runner), or —
#                        when the factory carries ``builds_network = True`` —
#                        adapter factories ``(network: NetworkConfig, seed:
#                        int) -> network`` returning a ready network object
#                        (e.g. the disk-backed softmax_dump adapter);
# * DATASETS           — builders ``(data: DataConfig, seed: int) -> dataset``;
# * METRIC_GROUPS      — tuples of feature names (or None for "all features");
# * META_CLASSIFIERS   — factories ``(**kwargs) -> MetaClassifier`` with the
#                        model family baked in;
# * META_REGRESSORS    — factories ``(**kwargs) -> MetaRegressor``;
# * DECISION_RULES     — the decision-rule callables of repro.decision.rules.
# --------------------------------------------------------------------------

NETWORK_PROFILES = Registry(
    "networks", "simulated segmentation-network profiles (quality presets)"
)
DATASETS = Registry(
    "datasets", "synthetic dataset substrates and named size variants"
)
METRIC_GROUPS = Registry(
    "metric_groups", "named feature subsets of the segment metrics mu(k)"
)
META_CLASSIFIERS = Registry(
    "meta_classifiers", "meta-classification model families (IoU = 0 vs > 0)"
)
META_REGRESSORS = Registry(
    "meta_regressors", "meta-regression model families (IoU prediction)"
)
DECISION_RULES = Registry(
    "decision_rules", "pixel-wise decision rules on the softmax output"
)

#: All registries by kind, in display order.
ALL_REGISTRIES: Dict[str, Registry] = {  # repro: allow[concurrency-shared-state] -- populated by this literal, read-only afterwards
    registry.kind: registry
    for registry in (
        NETWORK_PROFILES,
        DATASETS,
        METRIC_GROUPS,
        META_CLASSIFIERS,
        META_REGRESSORS,
        DECISION_RULES,
    )
}


_BUILTINS_READY = False
_BUILTINS_LOADING = False
_BUILTINS_ERROR: Optional[BaseException] = None
_BUILTINS_LOCK = threading.RLock()


def _load_builtins() -> None:
    """Import the modules that self-register the built-in components.

    Deferred to first lookup so that (a) ``import repro.api.registry`` stays
    cheap and cycle-free and (b) modules can self-register during the import
    of the ``repro`` package without re-entering this loader.  A failed
    import is remembered and re-raised on every subsequent lookup: retrying
    would re-execute partially-registered modules (duplicate-name errors)
    and silently operating on a partial registry would mask the real cause.

    Thread-safe: the first lookup may come from a worker thread (the
    scoring server's), and concurrent first lookups must not let
    one thread observe the registries while another is still importing.
    ``_BUILTINS_READY`` flips only after the imports succeed, so the
    lock-free fast path never exposes a partial registry; the reentrancy
    flag (plus the RLock) keeps self-registration during the import block
    working on the loading thread itself.
    """
    global _BUILTINS_READY, _BUILTINS_LOADING, _BUILTINS_ERROR
    if _BUILTINS_READY:
        return
    with _BUILTINS_LOCK:
        if _BUILTINS_ERROR is not None:
            raise RuntimeError(
                "registration of the built-in components failed previously"
            ) from _BUILTINS_ERROR
        if _BUILTINS_READY or _BUILTINS_LOADING:
            return
        _BUILTINS_LOADING = True
        try:
            import repro.core.meta_classification  # noqa: F401
            import repro.core.meta_regression  # noqa: F401
            import repro.core.metrics  # noqa: F401
            import repro.decision.rules  # noqa: F401
            import repro.io.cityscapes  # noqa: F401
            import repro.io.softmax  # noqa: F401
            import repro.segmentation.datasets  # noqa: F401
            import repro.segmentation.network  # noqa: F401
        except BaseException as exc:
            _BUILTINS_ERROR = exc
            raise
        finally:
            _BUILTINS_LOADING = False
        _BUILTINS_READY = True


def all_registries() -> Dict[str, Registry]:
    """All registries by kind (built-ins guaranteed to be loaded)."""
    _load_builtins()
    return dict(ALL_REGISTRIES)
