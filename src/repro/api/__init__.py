"""Unified experiment API: registries, declarative configs, one Runner.

The subpackage has five layers:

* :mod:`repro.api.registry` — read-only tables naming every component a
  config picks (network profiles, datasets, metric groups, meta-model
  families, decision rules), built from the modules that define them;
* :mod:`repro.api.config` — declarative, JSON-round-trippable configuration
  dataclasses (:class:`ExperimentConfig` and its nested sections);
* :mod:`repro.api.kinds` — the three experiment kinds, one table entry
  each (substrate, stage-1 shard and fold, protocol and tables);
* :mod:`repro.api.execution` — stage 1 as one walk, cut into
  :func:`shard_ranges` that run inline or on a process pool;
* :mod:`repro.api.runner` — the :class:`Runner` that resolves a config
  through the registries, runs any of the three experiment kinds and
  returns a unified :class:`ExperimentReport`.

``python -m repro`` (see :mod:`repro.__main__`) exposes the same API on the
command line.

Config and registry are imported eagerly: the config is stdlib-only, and
the registry imports only domain modules, which import nothing of this
package but :mod:`repro.api.config`.  The runner — which imports the
pipelines and the store — is loaded lazily on first attribute access to keep
this package importable from anywhere without cycles.
"""

from repro.api.config import (
    EXPERIMENT_KINDS,
    ConfigError,
    DataConfig,
    EvalConfig,
    ExecutionConfig,
    ExperimentConfig,
    ExtractionConfig,
    MetaModelConfig,
    NetworkConfig,
    apply_dotted_override,
)
from repro.api.registry import (
    ALL_REGISTRIES,
    DATASETS,
    DECISION_RULES,
    META_CLASSIFIERS,
    META_REGRESSORS,
    METRIC_GROUPS,
    NETWORK_PROFILES,
    Registry,
    RegistryError,
    all_registries,
)

#: Names resolved lazily from repro.api.runner (PEP 562).
_LAZY = ("Runner", "ExperimentReport", "ResolvedExperiment", "derived_seeds",
         "DerivedSeeds")

#: Names resolved lazily from repro.api.fitted (pulls in models + metrics).
_LAZY_FITTED = ("FittedModel",)

#: Names resolved lazily from repro.api.execution (imports the pipelines).
_LAZY_EXECUTION = ("shard_ranges",)

__all__ = [
    "EXPERIMENT_KINDS",
    "ConfigError",
    "ExperimentConfig",
    "DataConfig",
    "NetworkConfig",
    "ExtractionConfig",
    "ExecutionConfig",
    "MetaModelConfig",
    "EvalConfig",
    "Registry",
    "RegistryError",
    "ALL_REGISTRIES",
    "NETWORK_PROFILES",
    "DATASETS",
    "METRIC_GROUPS",
    "META_CLASSIFIERS",
    "META_REGRESSORS",
    "DECISION_RULES",
    "all_registries",
    "apply_dotted_override",
    *_LAZY,
    *_LAZY_EXECUTION,
    *_LAZY_FITTED,
]


def __getattr__(name: str):
    if name in _LAZY:
        from repro.api import runner

        return getattr(runner, name)
    if name in _LAZY_EXECUTION:
        from repro.api import execution

        return getattr(execution, name)
    if name in _LAZY_FITTED:
        from repro.api import fitted

        return getattr(fitted, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
