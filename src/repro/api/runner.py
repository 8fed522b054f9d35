"""The unified experiment runner.

One :class:`Runner` executes any :class:`~repro.api.config.ExperimentConfig`:
it resolves every named component through the registries
(:mod:`repro.api.registry`), walks stage 1 and runs the paper's protocol
of the requested kind (``metaseg`` / ``timedynamic`` / ``decision``, each
one entry of :data:`repro.api.kinds.KINDS`), and returns a unified
:class:`ExperimentReport` — kind tag, flat per-variant metric tables, and
provenance (config echo, seed, stage timings).

Every stochastic component derives its seed from the config's single
``seed`` field via fixed offsets (see :func:`derived_seeds`), so a Runner
run is bitwise reproducible and bitwise identical to the equivalent direct
pipeline calls made with the same derived seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Union

from repro.api.config import ConfigError, ExperimentConfig
from repro.api.execution import walk_stage1
from repro.api.fitted import FittedModel
from repro.api.kinds import KINDS, Table, metaseg_pipeline
from repro.obs import Tracer, timings_view
from repro.store import FitCache, model_key, report_key
from repro.api.registry import (
    DATASETS,
    DECISION_RULES,
    META_CLASSIFIERS,
    META_REGRESSORS,
    METRIC_GROUPS,
    NETWORK_PROFILES,
)
from repro.core.meta_model import PROTOCOL_PARAMS
from repro.segmentation.network import SimulatedSegmentationNetwork


class DerivedSeeds(NamedTuple):
    """Fixed per-component seeds derived from one experiment seed.

    The offsets are part of the public reproducibility contract: a direct
    pipeline call using these seeds is bitwise identical to the Runner.
    """

    data: int
    network: int
    reference_network: int
    protocol: int


def derived_seeds(seed: int) -> DerivedSeeds:
    """Derive the per-component seeds for one experiment seed."""
    seed = int(seed)
    return DerivedSeeds(
        data=seed, network=seed + 1, reference_network=seed + 2, protocol=seed + 3
    )


@dataclass
class ExperimentReport:
    """Unified result of one experiment run.

    ``tables`` maps a table name to a list of flat rows (plain dicts), the
    same shape for every experiment kind, so downstream consumers (CLI,
    benchmarks, dashboards) need no kind-specific handling.  ``provenance``
    echoes the config, seed and workload sizes; ``timings`` holds per-stage
    wall-clock seconds — a flat view derived from the run's span tree
    (:func:`repro.obs.timings_view`), with the classic top-level stage keys
    (``resolve``/``extract``/``evaluate``/``total``) plus dotted keys for
    nested spans (``extract.shard3``) — and is excluded from
    :meth:`to_json` by default so that equal configs serialise to
    bitwise-equal reports.
    """

    kind: str
    name: str
    seed: int
    config: Dict[str, object]
    tables: Dict[str, Table] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, object] = field(default_factory=dict)
    """Result-store bookkeeping of this run (``hit``/``key``/shard counters).

    Like ``timings`` it differs between a cached and a fresh run, so it is
    excluded from :meth:`to_dict`/:meth:`to_json` — cached reports stay
    bitwise identical to freshly computed ones."""

    # ------------------------------------------------------------------ ---
    def table(self, name: str) -> Table:
        """Return one metric table by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"report has no table {name!r}; available: {', '.join(sorted(self.tables))}"
            ) from None

    def summary_rows(self) -> List[str]:
        """Human-readable rows covering every table of the report."""
        header = f"experiment: {self.kind}"
        if self.name:
            header += f" ({self.name})"
        rows = [header + f"  seed: {self.seed}"]
        for key, value in sorted(self.provenance.items()):
            rows.append(f"  {key}: {value}")
        for table_name in sorted(self.tables):
            rows.append(f"{table_name}:")
            for row in self.tables[table_name]:
                cells = []
                for key, value in row.items():
                    if isinstance(value, float):
                        cells.append(f"{key}={value:.4f}")
                    else:
                        cells.append(f"{key}={value}")
                rows.append("  " + "  ".join(cells))
        return rows

    def to_dict(self, include_timings: bool = False) -> Dict[str, object]:
        """Plain-dict view; timings are opt-in (they differ run to run)."""
        out: Dict[str, object] = {
            "kind": self.kind,
            "name": self.name,
            "seed": self.seed,
            "config": self.config,
            "tables": self.tables,
            "provenance": self.provenance,
        }
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_json(self, indent: int = 2, include_timings: bool = False) -> str:
        """Deterministic JSON serialisation (bitwise equal for equal configs)."""
        return json.dumps(
            self.to_dict(include_timings=include_timings), indent=indent, sort_keys=True
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentReport":
        """Rebuild a report from its :meth:`to_dict` form."""
        return cls(
            kind=payload["kind"],
            name=payload.get("name", ""),
            seed=payload["seed"],
            config=payload.get("config", {}),
            tables=payload.get("tables", {}),
            provenance=payload.get("provenance", {}),
            timings=payload.get("timings", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        """Rebuild a report from its :meth:`to_json` form."""
        return cls.from_dict(json.loads(text))


@dataclass
class ResolvedExperiment:
    """All registry entries of a config resolved into live components.

    ``dataset`` is the built substrate, ``network`` (and, for the
    time-dynamic kind, ``reference_network``) the networks — simulated ones
    for ordinary profiles, ready adapter objects (e.g. the disk-backed
    ``softmax_dump``) for registry entries marked ``builds_network`` — and
    ``feature_subset`` the resolved metric-group column list (``None`` for
    all features).  ``classifiers``/``regressors``/``rules`` echo the
    validated registry names.
    """

    config: ExperimentConfig
    seeds: DerivedSeeds
    dataset: object
    network: object
    reference_network: Optional[SimulatedSegmentationNetwork]
    feature_subset: Optional[List[str]]
    classifiers: List[str]
    regressors: List[str]
    rules: List[str]


class Runner:
    """Resolves a config through the registries and runs the experiment.

    The Runner owns no state between runs; it is safe to reuse one instance
    for many configs.  Everything kind-specific comes from the
    ``config.kind`` entry of :data:`repro.api.kinds.KINDS`::

        report = Runner().run(ExperimentConfig(kind="metaseg"))

    Passing a :class:`repro.store.ResultStore` memoises the run through
    :meth:`~repro.store.ResultStore.get_or_compute`, the one caching route:
    whole reports by the full config hash, the serving model of
    :meth:`fit`, the shards of a multi-shard stage 1 by (stage-1 config
    hash, index range), the decision priors and every meta-model fit.  So a
    sweep that only changes protocol-side fields (e.g. the meta-model)
    reuses every extraction shard.  Writes are best-effort (an unwritable
    store still returns the computed result) and stale payloads are
    recomputed.  Cached reports are bitwise identical to fresh ones
    (timings and cache bookkeeping live outside the serialised payload).

    ``tracer`` selects the telemetry sink for the run's stage spans
    (:mod:`repro.obs`).  The default (``None``) gives every ``run()`` its
    own private :class:`~repro.obs.Tracer` purely to derive the
    backward-compatible ``report.timings`` view; pass a shared tracer to
    collect the full span tree (``python -m repro run --trace``), or
    :data:`~repro.obs.NULL_TRACER` to disable span recording entirely
    (``report.timings`` is then empty).  Telemetry never enters the
    deterministic report payload.
    """

    def __init__(
        self, store: Optional[object] = None, tracer: Optional[object] = None
    ) -> None:
        self.store = store
        self.tracer = tracer

    def _run_tracer(self) -> object:
        """The tracer of one ``run()``: configured, or a private per-run one."""
        return self.tracer if self.tracer is not None else Tracer()

    def run(self, config: Union[ExperimentConfig, Dict[str, object]]) -> ExperimentReport:
        """Execute one experiment and return its unified report.

        Resolve, the kind's optional ``prepare`` step, the stage-1 walk
        under the kind's span, then its ``evaluate`` hook under the
        ``evaluate`` span.  The walk is :func:`repro.api.execution.walk_stage1`,
        cut into as many shards as ``config.execution`` asks for; every
        shard count is bitwise identical to serial, so the choice is purely
        about wall-clock and memory.  With a store, the whole run is the
        compute of one single-flight report memo under the ``cache_lookup``
        span.
        """
        config = _validated(config)
        tracer = self._run_tracer()
        if self.store is None:
            return self._execute(config, tracer, None)
        key = report_key(config.to_dict())
        fit_cache = FitCache(self.store, config.to_dict())
        with tracer.span("cache_lookup") as lookup:
            (report,), (hit,) = self.store.get_or_compute(
                [key],
                lambda indices: [self._execute(config, tracer, fit_cache)],
                provenance=_memo_provenance("report", config, key),
                encode=ExperimentReport.to_dict,
                decode=ExperimentReport.from_dict,
            )
        if hit and lookup.duration_s is not None:
            report.timings = {"cache_lookup": lookup.duration_s}
        report.cache = {"hit": hit, "key": key, **report.cache}
        return report

    def _execute(
        self, config: ExperimentConfig, tracer: object, fit_cache: Optional[FitCache]
    ) -> ExperimentReport:
        """Compute one report: resolve, prepare, stage-1 walk, evaluate.

        ``report.cache`` carries this run's shard and fit counters (only
        with a store attached).
        """
        kind = KINDS[config.kind]
        with tracer.span("run", kind=config.kind, seed=config.seed) as root:
            with tracer.span("resolve"):
                resolved = self.resolve(config)
            priors = None
            if kind.prepare is not None:
                priors = kind.prepare(resolved, self.store, tracer, fit_cache)
            with tracer.span(kind.span, backend=config.execution.backend) as span:
                folded, n_items, shard_counts = walk_stage1(
                    resolved, priors, self.store, tracer
                )
                span.set(n_items=n_items)
            with tracer.span("evaluate"):
                provenance, tables = kind.evaluate(resolved, folded, n_items, fit_cache)
            report = ExperimentReport(
                kind=config.kind, name=config.name, seed=config.seed,
                config=config.to_dict(), tables=tables, provenance=provenance,
            )
        report.timings = timings_view(tracer.records(), root.span_id)
        if shard_counts:
            report.cache["shards"] = shard_counts
        if fit_cache is not None and any(fit_cache.counters.values()):
            report.cache["fits"] = dict(fit_cache.counters)
        return report

    def fit(self, config: Union[ExperimentConfig, Dict[str, object]]) -> FittedModel:
        """Fit (once) the serving meta-model of a metaseg config.

        Extracts the full metrics dataset and fits the config's *first*
        registered classifier and regressor on it, returning a
        :class:`~repro.api.fitted.FittedModel` ready for fit-once/score-many
        use (:meth:`score`, ``python -m repro serve``).  With a store
        attached the artifact is persisted under its content key
        (:func:`repro.store.model_key`) and later calls reload it instead of
        re-extracting and re-fitting; ``model.cache`` records ``hit``/``key``
        like ``report.cache`` does.
        """
        config = _serving_config(config)
        if self.store is None:
            return self._fit_model(config)
        key = model_key(config.to_dict())
        (model,), (hit,) = self.store.get_or_compute(
            [key],
            lambda indices: [self._fit_model(config)],
            provenance=_memo_provenance("model", config, key),
            encode=FittedModel.to_state,
            decode=FittedModel.from_state,
        )
        model.cache = {"hit": hit, "key": key}
        return model

    def _fit_model(self, config: ExperimentConfig) -> FittedModel:
        """Extract the metrics dataset and fit the serving model once."""
        resolved = self.resolve(config)
        metrics, n_images, _ = walk_stage1(resolved, store=self.store)
        classifier_name = resolved.classifiers[0]
        regressor_name = resolved.regressors[0]
        params = config.meta_models.model_params
        classifier = META_CLASSIFIERS.get(classifier_name)(
            penalty=config.meta_models.classification_penalty,
            feature_subset=resolved.feature_subset,
            random_state=resolved.seeds.protocol,
            **params.get(classifier_name, {}),
        )
        classifier.fit(metrics)
        regressor = META_REGRESSORS.get(regressor_name)(
            penalty=config.meta_models.regression_penalty,
            feature_subset=resolved.feature_subset,
            random_state=resolved.seeds.protocol,
            **params.get(regressor_name, {}),
        )
        regressor.fit(metrics)
        return FittedModel(
            classifier=classifier,
            regressor=regressor,
            label_space=metaseg_pipeline(resolved).label_space,
            connectivity=config.extraction.connectivity,
            feature_names=list(metrics.feature_names),
            provenance={
                "kind": config.kind,
                "name": config.name,
                "seed": config.seed,
                "network": resolved.network.profile.name,
                "classifier": classifier_name,
                "regressor": regressor_name,
                "n_images": n_images,
                "n_segments": len(metrics),
            },
        )

    def score(
        self,
        config: Union[ExperimentConfig, Dict[str, object]],
        model: Optional[FittedModel] = None,
    ) -> Dict[str, object]:
        """Batch-score the validation split with a fitted model.

        The reference for the serving path: walks the validation split in
        order, one frame at a time, and scores every frame through the same
        :meth:`FittedModel.score_frame` the HTTP server uses, so server
        responses are bitwise comparable to this output.  ``model`` defaults
        to :meth:`fit` of the same config.
        """
        config = _serving_config(config)
        if model is None:
            model = self.fit(config)
        resolved = self.resolve(config)
        dataset = resolved.dataset
        extractor = model.build_extractor()
        frames: List[Dict[str, object]] = []
        for index in range(dataset.n_val):
            sample = dataset.val_sample(index)
            probs = resolved.network.predict_probabilities(sample.labels, index=index)
            frames.append(
                model.score_frame(probs, extractor=extractor, image_id=sample.image_id)
            )
        return {"frames": frames, "n_frames": len(frames)}

    # ------------------------------------------------------------------ ---
    def resolve(self, config: ExperimentConfig) -> ResolvedExperiment:
        """Resolve every registry name of a validated config into components.

        Raises :class:`repro.api.registry.RegistryError` (with the available
        names) on any unknown component name, and
        :class:`~repro.api.config.ConfigError` on a ``model_params`` entry a
        built-in meta-model family cannot take, before anything expensive
        runs.
        """
        seeds = derived_seeds(config.seed)
        kind = KINDS[config.kind]
        # A registry entry marked ``builds_network`` is an adapter factory:
        # called with the network section and the seed, it returns a ready
        # network (e.g. softmax_dump serving precomputed fields from disk)
        # instead of a NetworkProfile to wrap in the simulated network.
        factory = NETWORK_PROFILES.get(config.network.profile)
        if getattr(factory, "builds_network", False):
            if config.network.overrides:
                raise ValueError(
                    f"network: profile {config.network.profile!r} serves "
                    f"precomputed outputs; profile overrides only apply to "
                    f"simulated profiles"
                )
            if kind.video:
                raise ValueError(
                    f"network: profile {config.network.profile!r} serves "
                    f"single validation frames and cannot drive the "
                    f"time-dynamic kind (video sequences)"
                )
            network = factory(config.network, seeds.network)
        else:
            profile = factory()
            if config.network.overrides:
                profile = profile.with_overrides(**config.network.overrides)
            network = SimulatedSegmentationNetwork(profile, random_state=seeds.network)
        reference_network = None
        if kind.video:
            reference_factory = NETWORK_PROFILES.get(config.network.reference_profile)
            if getattr(reference_factory, "builds_network", False):
                raise ValueError(
                    f"network: reference_profile {config.network.reference_profile!r} "
                    f"must be a simulated profile (it generates pseudo ground truth)"
                )
            reference_network = SimulatedSegmentationNetwork(
                reference_factory(), random_state=seeds.reference_network
            )
        dataset = DATASETS.get(config.data.dataset)(config.data, seeds.data)
        # Valid registry names can still not fit together (a video substrate
        # for a single-frame kind): a config error here, not a crash mid-walk.
        missing = [name for name in kind.reads if not hasattr(dataset, name)]
        if missing:
            raise ValueError(
                f"dataset {config.data.dataset!r} does not fit experiment kind "
                f"{config.kind!r}: it lacks {', '.join(missing)}; "
                f"this kind needs {kind.substrate}"
            )
        # Adapter networks can cross-check the substrate they will be walked
        # against (frame/dump mismatch fails here, not mid-extraction).
        check_dataset = getattr(network, "check_dataset", None)
        if check_dataset is not None:
            check_dataset(dataset)
        group = METRIC_GROUPS.get(config.meta_models.feature_group)
        feature_subset = None if group is None else list(group)
        meta = config.meta_models
        regressors = meta.regressors
        if kind.video:
            # Section III shares one method list across both meta tasks, so
            # each name must be registered as classifier AND regressor.
            regressors = meta.classifiers
            for name in meta.classifiers:
                if name not in META_CLASSIFIERS or name not in META_REGRESSORS:
                    raise ValueError(
                        f"timedynamic methods must be registered as both "
                        f"meta-classifier and meta-regressor; {name!r} is not "
                        f"(shared by both: "
                        f"{', '.join(sorted(set(META_CLASSIFIERS) & set(META_REGRESSORS)))})"
                    )
        for registry, names in ((META_CLASSIFIERS, meta.classifiers),
                                (META_REGRESSORS, regressors)):
            for name in names:
                _check_model_params(registry.get(name), name, meta.model_params.get(name, {}))
        for name in config.evaluation.rules:
            DECISION_RULES.get(name)
        return ResolvedExperiment(
            config=config,
            seeds=seeds,
            dataset=dataset,
            network=network,
            reference_network=reference_network,
            feature_subset=feature_subset,
            classifiers=list(config.meta_models.classifiers),
            regressors=list(config.meta_models.regressors),
            rules=list(config.evaluation.rules),
        )


def _check_model_params(factory: object, name: str, params: object) -> None:
    """Reject a built-in family's ``model_params`` entry its model cannot take.

    Checked at resolve time, so a typo fails before stage 1 instead of
    inside the protocol.  Custom factories stay unchecked.
    """
    meta_model = getattr(factory, "meta_model", None)
    if meta_model is None:
        return
    where = f"meta_models: model_params[{name!r}]"
    if not isinstance(params, dict):
        raise ConfigError(f"{where} must be a dict, got {type(params).__name__}")
    accepted = meta_model.accepted_params(factory.method)
    for key in params:
        if key in PROTOCOL_PARAMS:
            raise ConfigError(f"{where}: {key!r} is set by the protocol, not by model_params")
        if key not in accepted:
            raise ConfigError(
                f"{where}: the {meta_model.__name__} family {name!r} has no "
                f"parameter {key!r} (accepted: {', '.join(accepted)})"
            )


def _validated(config: Union[ExperimentConfig, Dict[str, object]]) -> ExperimentConfig:
    """A validated :class:`ExperimentConfig` from a config or its dict form."""
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    config.validate()
    return config


def _serving_config(config: Union[ExperimentConfig, Dict[str, object]]) -> ExperimentConfig:
    """The validated config of :meth:`Runner.fit`/:meth:`Runner.score`:
    serving models score single frames, so only kind ``metaseg`` fits."""
    config = _validated(config)
    if config.kind != "metaseg":
        raise ValueError(
            f"Runner.fit builds single-frame scoring models and requires "
            f"kind 'metaseg', got {config.kind!r}"
        )
    return config


def _memo_provenance(entry: str, config: ExperimentConfig, key: str) -> List[Dict]:
    """Sidecar provenance of a report or model memo (one key)."""
    return [{"type": entry, "kind": config.kind, "name": config.name,
             "seed": config.seed, "config_hash": key}]
