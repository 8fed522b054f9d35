"""Declarative, JSON-round-trippable experiment configurations.

An :class:`ExperimentConfig` fully describes one experiment of any of the
three kinds — ``"metaseg"`` (Section II / Table I), ``"timedynamic"``
(Section III / Table II) and ``"decision"`` (Section IV / Fig. 5) — as plain
data: every pluggable component is referenced by its registry name and every
knob lives in one of the nested sections.  A config can be built in code,
loaded from JSON (``ExperimentConfig.from_json``), validated, echoed back
into a report, and handed to :class:`repro.api.runner.Runner` for execution::

    config = ExperimentConfig(
        kind="metaseg",
        seed=0,
        data=DataConfig(dataset="cityscapes_like", n_val=12),
        network=NetworkConfig(profile="mobilenetv2"),
    )
    report = Runner().run(config)

Keys that were removed from the schema (``extraction.chunk_size``,
``extraction.max_workers``, ``execution.streaming``,
``execution.lease_timeout``, ``execution.max_retries``,
``execution.backoff``) fail at parse time with a :class:`ConfigError`
naming their replacement, and so does a removed ``execution.backend``
value; the one worker knob is ``execution.workers``.

This module is stdlib-only (dataclasses + json) so it can be imported from
anywhere in the library without cycles.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: The three experiment kinds the Runner can dispatch to.
EXPERIMENT_KINDS = ("metaseg", "timedynamic", "decision")


class ConfigError(ValueError):
    """A structurally invalid experiment config.

    Raised at parse time (:meth:`ExperimentConfig.from_dict` /
    :meth:`ExperimentConfig.from_json`) and by :meth:`ExperimentConfig.
    validate`, always naming the offending section and field, so a bad value
    fails fast with an actionable message instead of blowing up deep inside
    the execution layer.  Subclasses :class:`ValueError` so existing callers
    that catch ``ValueError`` keep working.
    """


def _is_int(value: object) -> bool:
    """True for genuine integers; bool is excluded (it subclasses int, so a
    JSON ``true`` would otherwise silently count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_list(values: Sequence) -> list:
    """Normalise sequence fields to plain lists (JSON round-trip equality)."""
    return list(values)


@dataclass
class DataConfig:
    """Which dataset substrate to build, and at which size.

    ``dataset`` names an entry of the ``datasets`` registry.  The single-frame
    fields (``n_train``/``n_val``) apply to Cityscapes-like substrates, the
    sequence fields (``n_sequences``/``n_frames``/``labeled_stride``) to
    KITTI-like video substrates; builders read the fields they need.  ``root``
    points an on-disk substrate (``cityscapes_disk``) at its dataset
    directory; synthetic builders ignore it, and the size fields are ignored
    by disk builders (the files dictate the sizes).
    """

    dataset: str = "cityscapes_like"
    root: str = ""
    n_train: int = 0
    n_val: int = 12
    height: int = 96
    width: int = 192
    n_sequences: int = 2
    n_frames: int = 8
    labeled_stride: int = 2

    def validate(self) -> None:
        if not isinstance(self.root, str):
            raise ConfigError(f"data: root must be a path string, got {self.root!r}")
        if self.n_train < 0 or self.n_val < 0:
            raise ConfigError("data: split sizes (n_train/n_val) must be non-negative")
        if self.height < 32 or self.width < 64:
            raise ConfigError("data: scenes (height/width) must be at least 32x64 pixels")
        if self.n_sequences < 1 or self.n_frames < 1:
            raise ConfigError("data: n_sequences and n_frames must be >= 1")
        if self.labeled_stride < 1:
            raise ConfigError("data: labeled_stride must be >= 1")


@dataclass
class NetworkConfig:
    """Which simulated network profile(s) to run.

    ``profile`` and ``reference_profile`` name entries of the ``networks``
    registry; the reference profile is only used by the time-dynamic kind
    (pseudo ground truth).  ``overrides`` are forwarded to
    :meth:`NetworkProfile.with_overrides` for ablations (simulated profiles
    only).  ``dump_root``/``mmap`` configure the ``softmax_dump`` adapter
    serving precomputed probability fields from disk; simulated profiles
    ignore both.
    """

    profile: str = "mobilenetv2"
    reference_profile: str = "xception65"
    overrides: Dict[str, object] = field(default_factory=dict)
    dump_root: str = ""
    mmap: bool = True

    def validate(self) -> None:
        if not self.profile:
            raise ConfigError("network: profile name must be non-empty")
        if not isinstance(self.overrides, dict):
            raise ConfigError("network: overrides must be a dict")
        if not isinstance(self.dump_root, str):
            raise ConfigError(
                f"network: dump_root must be a path string, got {self.dump_root!r}"
            )
        if not isinstance(self.mmap, bool):
            raise ConfigError(f"network: mmap must be a boolean, got {self.mmap!r}")


@dataclass
class ExtractionConfig:
    """Metric-extraction parameters.

    How the stage-1 walk is scheduled lives in :class:`ExecutionConfig`
    (one worker knob); items always fold one at a time, so there is no
    chunk size.
    """

    connectivity: int = 8
    """Connectivity (4 or 8) of the segment decomposition (``metaseg``
    kind; the other kinds use the library default of 8)."""

    def validate(self) -> None:
        if self.connectivity not in (4, 8):
            raise ConfigError("extraction: connectivity must be 4 or 8")


@dataclass
class ExecutionConfig:
    """How the Runner executes the dataset walk of an experiment.

    ``backend`` is ``serial`` or ``process`` (any other name is rejected
    at parse time); ``workers`` is the one worker knob: the shard count of
    the stage-1 walk, run on that many processes (``None`` picks one shard
    under ``serial`` and the core count under ``process``, 0 and 1 mean
    one inline shard, negative values are rejected at parse time).
    ``serial`` runs one shard, so ``workers > 1`` under it is rejected at
    parse time too.  Every walk streams: items are read uncached by index
    and folded one at a time.  A lost worker is recovered on its own (the
    unfinished shards are recomputed inline), so there is nothing to tune.

    Every combination is bit-neutral: the shard count only changes where
    the work runs, never the numbers
    (:func:`repro.api.execution.walk_stage1`).
    """

    backend: str = "serial"
    workers: Optional[int] = None

    def validate(self) -> None:
        if not isinstance(self.backend, str) or not self.backend:
            raise ConfigError(
                f"execution: backend must be a non-empty string, got {self.backend!r}"
            )
        if self.backend in _REMOVED_BACKENDS:
            raise ConfigError(
                f"execution: backend {self.backend!r} was removed; "
                f"{_REMOVED_BACKENDS[self.backend]}"
            )
        if self.backend not in ("serial", "process"):
            raise ConfigError(
                f"execution: unknown backend {self.backend!r}; "
                f"use 'serial' or 'process'"
            )
        if self.workers is not None and (not _is_int(self.workers) or self.workers < 0):
            raise ConfigError(
                f"execution: workers must be an integer >= 0 "
                f"(None, 0 and 1 run serially), got {self.workers!r}"
            )
        if self.backend == "serial" and self.workers is not None and self.workers > 1:
            raise ConfigError(
                f"execution: workers={self.workers} needs execution.backend "
                f"'process'; 'serial' runs one shard"
            )


@dataclass
class MetaModelConfig:
    """Which meta-model variants to fit, and with which hyperparameters.

    ``classifiers`` / ``regressors`` name entries of the ``meta_classifiers``
    / ``meta_regressors`` registries (the time-dynamic kind uses the
    ``classifiers`` list as its shared method list, as in the paper, and
    ignores ``regressors``).  ``feature_group`` names a ``metric_groups``
    entry restricting the features (for ``timedynamic`` it selects the base
    features tracked over time); ``model_params`` maps a method name to
    extra keyword arguments for that model family (README "Meta models";
    ``Runner.resolve`` rejects keys a built-in family cannot take).  The
    ``decision`` kind fits no meta models.

    ``Runner.fit`` (the fit-once/score-many serving path) persists exactly
    one classifier/regressor pair per config: ``classifiers[0]`` and
    ``regressors[0]`` are the families it fits on the full dataset and
    serializes into the :class:`~repro.api.fitted.FittedModel` artifact.
    """

    classifiers: List[str] = field(default_factory=lambda: ["logistic"])
    regressors: List[str] = field(default_factory=lambda: ["linear"])
    classification_penalty: float = 1.0
    regression_penalty: float = 1.0
    feature_group: str = "all"
    model_params: Dict[str, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.classifiers = _as_list(self.classifiers)
        self.regressors = _as_list(self.regressors)

    def validate(self) -> None:
        if not self.classifiers or not self.regressors:
            raise ConfigError("meta_models: need at least one classifier and one regressor")
        if self.classification_penalty < 0 or self.regression_penalty < 0:
            raise ConfigError("meta_models: penalties must be non-negative")
        if not isinstance(self.model_params, dict):
            raise ConfigError("meta_models: model_params must be a dict")


@dataclass
class EvalConfig:
    """Evaluation-protocol parameters; each kind reads the fields it needs.

    ``n_runs``/``train_fraction`` drive the Table I resampling protocol,
    ``split_fractions``/``n_frames_list``/``compositions`` the Section III
    protocol, and ``rules``/``category``/``strengths`` the Section IV
    comparison (``rules`` names entries of the ``decision_rules`` registry).
    """

    n_runs: int = 10
    train_fraction: float = 0.8
    split_fractions: List[float] = field(default_factory=lambda: [0.7, 0.1, 0.2])
    n_frames_list: List[int] = field(default_factory=lambda: [0, 1, 2])
    compositions: List[str] = field(default_factory=lambda: ["R", "RP"])
    augmentation_factor: float = 1.0
    rules: List[str] = field(default_factory=lambda: ["bayes", "ml"])
    category: str = "human"
    strengths: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.split_fractions = _as_list(self.split_fractions)
        self.n_frames_list = _as_list(self.n_frames_list)
        self.compositions = _as_list(self.compositions)
        self.rules = _as_list(self.rules)

    def validate(self) -> None:
        if self.n_runs < 1:
            raise ConfigError("evaluation: n_runs must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("evaluation: train_fraction must be in (0, 1)")
        if len(self.split_fractions) != 3 or abs(sum(self.split_fractions) - 1.0) > 1e-8:
            raise ConfigError("evaluation: split_fractions must be three values summing to 1")
        if not self.n_frames_list or any(n < 0 for n in self.n_frames_list):
            raise ConfigError("evaluation: n_frames_list must be non-empty and non-negative")
        if not self.compositions:
            raise ConfigError("evaluation: compositions must be non-empty")
        if self.augmentation_factor < 0:
            raise ConfigError("evaluation: augmentation_factor must be non-negative")
        if not self.rules:
            raise ConfigError("evaluation: rules must be non-empty")
        if not self.category:
            raise ConfigError("evaluation: category must be non-empty")


_RECOVERS_LOST_WORKERS = (
    "the process backend recovers lost workers without tuning, so drop the key"
)

#: Removed (section, key) -> its replacement; from_dict names it in the error.
_REMOVED_KEYS = {
    ("extraction", "chunk_size"): "items fold one at a time, so drop the key",
    ("extraction", "max_workers"): (
        "workers come from execution.workers under execution.backend 'process'"
    ),
    ("execution", "streaming"): "every walk streams uncached now, so drop the key",
    ("execution", "lease_timeout"): _RECOVERS_LOST_WORKERS,
    ("execution", "max_retries"): _RECOVERS_LOST_WORKERS,
    ("execution", "backoff"): _RECOVERS_LOST_WORKERS,
}

#: Removed execution.backend value -> its replacement; validate names it.
_REMOVED_BACKENDS = {
    "distributed": "use 'process', which recovers lost workers on its own",
    "thread": "use 'process' for parallel shards",
}

#: Section name -> nested dataclass type, shared by from_dict/to_dict.
_SECTIONS = {
    "data": DataConfig,
    "network": NetworkConfig,
    "extraction": ExtractionConfig,
    "execution": ExecutionConfig,
    "meta_models": MetaModelConfig,
    "evaluation": EvalConfig,
}


@dataclass
class ExperimentConfig:
    """Complete declarative description of one experiment.

    A single ``seed`` drives every stochastic component (scene generation,
    network noise, split resampling, model initialisation); two runs of the
    same config are bitwise identical.
    """

    kind: str = "metaseg"
    name: str = ""
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    meta_models: MetaModelConfig = field(default_factory=MetaModelConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)

    def validate(self) -> "ExperimentConfig":
        """Structural validation of all sections; returns self for chaining.

        Registry names are resolved (and therefore validated) by the Runner,
        so this stays import-light and usable from anywhere.
        """
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}"
            )
        if not _is_int(self.seed):
            raise ConfigError("seed must be an integer")
        for section in _SECTIONS:
            getattr(self, section).validate()
        meta = self.meta_models
        if self.kind == "metaseg" and "linear" in meta.regressors and meta.regression_penalty == 0:
            raise ConfigError(
                "meta_models: regression_penalty 0 leaves the 'linear' regressor "
                "rank-deficient: the segment features carry exact identities "
                "(sum of cprob = 1, S = S_in + S_bd, V_mean = 1 - pmax_mean); "
                "use a positive regression_penalty"
            )
        return self

    # ------------------------------------------------------------- (de)serialisation
    @classmethod
    def from_dict(
        cls, payload: Dict[str, object], validate: bool = True
    ) -> "ExperimentConfig":
        """Build a config from a plain dict, rejecting unknown keys.

        By default the built config is validated before it is returned, so
        structurally invalid values (negative worker counts, bad fractions,
        ...) raise :class:`ConfigError` — naming the section and field — at
        parse time instead of blowing up deep inside the execution layer.
        ``validate=False`` defers that to the caller, for consumers that
        apply overrides before validating (the CLI flags: an override must be
        able to fix the very field it overrides).
        Structural errors (non-dict payloads, unknown or removed keys)
        always raise.
        """
        if not isinstance(payload, dict):
            raise ConfigError(f"config payload must be a dict, got {type(payload).__name__}")
        payload = dict(payload)
        kwargs: Dict[str, object] = {}
        for section, section_cls in _SECTIONS.items():
            if section in payload:
                kwargs[section] = _section_from_dict(section_cls, payload.pop(section), section)
        for scalar in ("kind", "name", "seed"):
            if scalar in payload:
                kwargs[scalar] = payload.pop(scalar)
        if payload:
            raise ConfigError(
                f"unknown config keys: {', '.join(sorted(map(str, payload)))}"
            )
        config = cls(**kwargs)
        return config.validate() if validate else config

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view containing only JSON-serialisable types."""
        out: Dict[str, object] = {"kind": self.kind, "name": self.name, "seed": self.seed}
        for section in _SECTIONS:
            out[section] = dataclasses.asdict(getattr(self, section))
        return out

    @classmethod
    def from_json(cls, text: str, validate: bool = True) -> "ExperimentConfig":
        """Parse a config from a JSON document (see :meth:`from_dict`)."""
        return cls.from_dict(json.loads(text), validate=validate)

    def to_json(self, indent: int = 2) -> str:
        """Serialise the config to JSON (round-trips through from_json)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def apply_dotted_override(payload: Dict[str, object], path: str, value: object) -> None:
    """Set one config field of a *complete* config dict by dotted path.

    ``apply_dotted_override(d, "meta_models.classifiers", [...])`` replaces
    ``d["meta_models"]["classifiers"]`` in place.  The leaf (and every
    intermediate section) must already exist — pass a dict produced by
    :meth:`ExperimentConfig.to_dict`, which is always complete — so a typo
    in a sweep grid fails fast with a :class:`ConfigError` naming the path
    instead of silently adding an ignored key.
    """
    if not isinstance(path, str) or not path:
        raise ConfigError(f"override path must be a non-empty string, got {path!r}")
    parts = path.split(".")
    node: object = payload
    for depth, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            prefix = ".".join(parts[: depth + 1])
            raise ConfigError(
                f"unknown config field {path!r} (no such field {prefix!r})"
            )
        if depth == len(parts) - 1:
            node[part] = value
        else:
            node = node[part]


def _section_from_dict(section_cls, payload: object, section: str):
    """Instantiate a nested config section from a dict, rejecting unknown keys."""
    if isinstance(payload, section_cls):
        return payload
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {section!r} must be a dict")
    for key in sorted(map(str, payload)):
        if (section, key) in _REMOVED_KEYS:
            raise ConfigError(
                f"{section}: {key} was removed; {_REMOVED_KEYS[section, key]}"
            )
    known = {f.name for f in dataclasses.fields(section_cls)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(
            f"unknown keys in config section {section!r}: {', '.join(sorted(unknown))}"
        )
    return section_cls(**payload)
