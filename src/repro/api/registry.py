"""The named building blocks of the experiment API, one read-only table each.

A config picks every component by name — network profile, dataset
substrate, metric group, meta-model family, decision rule
(``{"network": {"profile": "xception65"}}``).  The components are plain
functions and tables of the modules that define them; this module is the
one place that names them, in six read-only :class:`Registry` tables built
when it is imported.  A new component is added to its module and named
here.  ``available()`` / ``describe()`` make every table introspectable
(the ``python -m repro list`` command is a thin wrapper around them).

Only the API layer imports this module: the domain modules below it never
look a component up by name.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping

from repro.core.meta_classification import MetaClassifier
from repro.core.meta_regression import MetaRegressor
from repro.core.metrics import METRIC_GROUPS as FEATURE_GROUPS
from repro.decision.rules import RULES
from repro.io.cityscapes import build_cityscapes_disk
from repro.io.softmax import build_softmax_dump
from repro.segmentation.datasets import (
    build_cityscapes_like,
    build_cityscapes_like_small,
    build_kitti_like,
    build_kitti_like_small,
)
from repro.segmentation.network import generic_profile, mobilenetv2_profile, xception65_profile


class RegistryError(KeyError):
    """Lookup of an unknown name."""


class Registry:
    """A read-only table of interchangeable components, keyed by name.

    Parameters
    ----------
    kind:
        Short machine-readable name of the table (``"networks"``, ...),
        used in error messages and by the CLI.
    description:
        One-line human description shown by ``python -m repro list``.
    entries:
        Name -> component.
    """

    def __init__(self, kind: str, description: str, entries: Mapping[str, object]) -> None:
        self.kind = kind
        self.description = description
        self._entries = dict(entries)

    def get(self, name: str) -> object:
        """Return the entry named *name*.

        Raises :class:`RegistryError` with the list of available names when
        the name is unknown.
        """
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} entry {name!r}; "
                f"available: {', '.join(self.available()) or '(none)'}"
            ) from None

    def available(self) -> List[str]:
        """Sorted names of all entries."""
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

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())


# --------------------------------------------------------------------------
# The library's tables.  Entry contracts:
#
# * NETWORK_PROFILES   — zero-argument factories returning a NetworkProfile
#                        (wrapped in a simulated network by the Runner), and
#                        the one adapter factory, ``softmax_dump``:
#                        ``(network: NetworkConfig, seed: int) -> network``
#                        returning a ready disk-backed network;
# * DATASETS           — builders ``(data: DataConfig, seed: int) -> dataset``;
# * METRIC_GROUPS      — tuples of feature names (or None for "all features");
# * META_CLASSIFIERS   — the estimator class of each MetaClassifier family;
# * META_REGRESSORS    — the estimator class of each MetaRegressor family;
# * DECISION_RULES     — the decision-rule callables of repro.decision.rules.
# --------------------------------------------------------------------------

NETWORK_PROFILES = Registry(
    "networks", "simulated segmentation-network profiles (quality presets)",
    {
        "generic": generic_profile,
        "xception65": xception65_profile,
        "mobilenetv2": mobilenetv2_profile,
        "softmax_dump": build_softmax_dump,
    },
)
DATASETS = Registry(
    "datasets", "synthetic dataset substrates and named size variants",
    {
        "cityscapes_like": build_cityscapes_like,
        "cityscapes_like_small": build_cityscapes_like_small,
        "kitti_like": build_kitti_like,
        "kitti_like_small": build_kitti_like_small,
        "cityscapes_disk": build_cityscapes_disk,
    },
)
# "all" is no restriction, i.e. the full metric vector of eq. (3).
METRIC_GROUPS = Registry(
    "metric_groups", "named feature subsets of the segment metrics mu(k)",
    {"all": None, **FEATURE_GROUPS},
)
META_CLASSIFIERS = Registry(
    "meta_classifiers", "meta-classification model families (IoU = 0 vs > 0)",
    {method: family.model for method, family in MetaClassifier.FAMILIES.items()},
)
META_REGRESSORS = Registry(
    "meta_regressors", "meta-regression model families (IoU prediction)",
    {method: family.model for method, family in MetaRegressor.FAMILIES.items()},
)
DECISION_RULES = Registry(
    "decision_rules", "pixel-wise decision rules on the softmax output", RULES
)

#: All registries by kind, in display order.
ALL_REGISTRIES: Dict[str, Registry] = {
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


def all_registries() -> Dict[str, Registry]:
    """All registries by kind, in display order."""
    return dict(ALL_REGISTRIES)
