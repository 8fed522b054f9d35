"""The unified experiment runner.

One :class:`Runner` executes any :class:`~repro.api.config.ExperimentConfig`:
it resolves every named component through the registries
(:mod:`repro.api.registry`), builds the substrate and pipeline for the
requested kind (``metaseg`` / ``timedynamic`` / ``decision``), runs the
paper's protocol, and returns a unified :class:`ExperimentReport` — kind
tag, flat per-variant metric tables, and provenance (config echo, seed,
stage timings).

Every stochastic component derives its seed from the config's single
``seed`` field via fixed offsets (see :func:`derived_seeds`), so a Runner
run is bitwise reproducible and bitwise identical to the equivalent direct
pipeline calls made with the same derived seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.api.config import ExperimentConfig
from repro.api.fitted import FittedModel
from repro.obs import Tracer, timings_view
from repro.store import FitCache, model_key, priors_key, report_key
from repro.api.registry import (
    DATASETS,
    DECISION_RULES,
    EXECUTION_BACKENDS,
    META_CLASSIFIERS,
    META_REGRESSORS,
    METRIC_GROUPS,
    NETWORK_PROFILES,
)
from repro.core.pipeline import MetaSegPipeline
from repro.decision.pipeline import DecisionRuleComparison
from repro.segmentation.network import SimulatedSegmentationNetwork
from repro.timedynamic.pipeline import TimeDynamicPipeline
from repro.utils.arrays import mean_std

#: A table is a list of flat rows; every row is JSON-serialisable.
Table = List[Dict[str, object]]


def _table_rows(cells) -> Table:
    """Flatten (key-fields, {metric: (mean, std)}) cells into table rows.

    Every report table shares this row shape — the key fields of the cell
    plus ``metric``/``mean``/``std`` columns — so downstream consumers need
    no kind-specific handling.
    """
    rows: Table = []
    for keys, metrics_by_name in cells:
        for metric, (mean, std) in metrics_by_name.items():
            rows.append({**keys, "metric": metric, "mean": mean, "std": std})
    return rows


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
    for many configs.  Dispatch is by ``config.kind``::

        report = Runner().run(ExperimentConfig(kind="metaseg"))

    Passing a :class:`repro.store.ResultStore` enables result caching at two
    granularities: whole reports are memoised by the full config hash, and
    the ``process``/``distributed`` backends cache per-shard stage-1 payloads
    keyed by (stage-1 config hash, index range) — so a sweep that only
    changes protocol-side fields (e.g. the meta-model) reuses every
    extraction shard.  Cached reports are bitwise identical to fresh ones
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

        The dataset walk is delegated to the execution backend named by
        ``config.execution.backend`` (``serial`` / ``thread`` / ``process``,
        resolved through the ``execution_backends`` registry); every backend
        is bitwise identical to serial, so the choice is purely about
        wall-clock and memory.
        """
        if isinstance(config, dict):
            config = ExperimentConfig.from_dict(config)
        config.validate()
        tracer = self._run_tracer()
        key = None
        if self.store is not None:
            with tracer.span("cache_lookup") as lookup:
                key = report_key(config.to_dict())
                payload = self.store.get(key, codec="json")
            if payload is not None:
                report = ExperimentReport.from_dict(payload)
                report.timings = (
                    {"cache_lookup": lookup.duration_s}
                    if lookup.duration_s is not None
                    else {}
                )
                report.cache = {"hit": True, "key": key}
                return report
        with tracer.span("run", kind=config.kind, seed=config.seed) as root:
            with tracer.span("resolve"):
                resolved = self.resolve(config)
                backend = self._backend(config, tracer)
                fit_cache = None
                if self.store is not None:
                    fit_cache = FitCache(self.store, config.to_dict())
            runner = {
                "metaseg": self._run_metaseg,
                "timedynamic": self._run_timedynamic,
                "decision": self._run_decision,
            }[config.kind]
            report = runner(resolved, backend, tracer, fit_cache)
        report.timings = timings_view(tracer.records(), root.span_id)
        if self.store is not None:
            self.store.put(
                key,
                report.to_dict(),
                codec="json",
                provenance={
                    "type": "report",
                    "kind": config.kind,
                    "name": config.name,
                    "seed": config.seed,
                    "config_hash": key,
                },
            )
            report.cache = {"hit": False, "key": key}
            shard_cache = getattr(backend, "shard_cache", None)
            if shard_cache:
                report.cache["shards"] = dict(shard_cache)
            if fit_cache.counters["hits"] or fit_cache.counters["misses"]:
                report.cache["fits"] = dict(fit_cache.counters)
        dispatch_stats = getattr(backend, "dispatch_stats", None)
        if dispatch_stats is not None:
            # Queue counters of the distributed backend (retries, worker
            # losses, dedup hits ...).  ``report.cache`` is excluded from the
            # serialised report, so the stats never perturb cache keys or
            # stored payloads.
            report.cache["dispatch"] = dict(dispatch_stats)
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
        if isinstance(config, dict):
            config = ExperimentConfig.from_dict(config)
        config.validate()
        if config.kind != "metaseg":
            raise ValueError(
                f"Runner.fit builds single-frame scoring models and requires "
                f"kind 'metaseg', got {config.kind!r}"
            )
        key = None
        if self.store is not None:
            key = model_key(config.to_dict())
            state = self.store.get(key, codec="json")
            if state is not None:
                model = FittedModel.from_state(state)
                model.cache = {"hit": True, "key": key}
                return model
        resolved = self.resolve(config)
        metrics, n_images = self._backend(config).stage1(resolved)
        pipeline = self.build_metaseg_pipeline(resolved)
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
        model = FittedModel(
            classifier=classifier,
            regressor=regressor,
            label_space=pipeline.label_space,
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
        if self.store is not None:
            self.store.put(
                key,
                model.to_state(),
                codec="json",
                provenance={
                    "type": "model",
                    "kind": config.kind,
                    "name": config.name,
                    "seed": config.seed,
                    "config_hash": key,
                },
            )
            model.cache = {"hit": False, "key": key}
        return model

    def score(
        self,
        config: Union[ExperimentConfig, Dict[str, object]],
        model: Optional[FittedModel] = None,
    ) -> Dict[str, object]:
        """Batch-score the validation split with a fitted model.

        The reference for the serving path: walks the validation split in
        order (by index, uncached) and scores every frame through the same
        :meth:`FittedModel.score_frame` the HTTP server uses, so server
        responses are bitwise comparable to this output.  ``model`` defaults
        to :meth:`fit` of the same config.
        """
        if isinstance(config, dict):
            config = ExperimentConfig.from_dict(config)
        config.validate()
        if model is None:
            model = self.fit(config)
        resolved = self.resolve(config)
        dataset = resolved.dataset
        extractor = model.build_extractor()
        frames: List[Dict[str, object]] = []
        for index in range(dataset.n_val):
            sample = dataset.val_sample(index, cache=False)
            probs = resolved.network.predict_probabilities(sample.labels, index=index)
            frames.append(
                model.score_frame(probs, extractor=extractor, image_id=sample.image_id)
            )
        return {"frames": frames, "n_frames": len(frames)}

    def _backend(self, config: ExperimentConfig, tracer: Optional[object] = None):
        """The config's execution backend, wired to this Runner's store."""
        backend = EXECUTION_BACKENDS.get(config.execution.backend)(config.execution)
        if tracer is not None:
            backend.attach_tracer(tracer)
        if self.store is not None:
            backend.attach_store(self.store)
        return backend

    # ------------------------------------------------------------------ ---
    def resolve(self, config: ExperimentConfig) -> ResolvedExperiment:
        """Resolve every registry name of a validated config into components.

        Raises :class:`repro.api.registry.RegistryError` (with the available
        names) on any unknown component name, before anything expensive runs.
        """
        seeds = derived_seeds(config.seed)
        # Backend first: it is the cheapest lookup and gates everything else.
        EXECUTION_BACKENDS.get(config.execution.backend)
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
            if config.kind == "timedynamic":
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
        if config.kind == "timedynamic":
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
        self._check_dataset_kind(config, dataset)
        # Adapter networks can cross-check the substrate they will be walked
        # against (frame/dump mismatch fails here, not mid-extraction).
        check_dataset = getattr(network, "check_dataset", None)
        if check_dataset is not None:
            check_dataset(dataset)
        group = METRIC_GROUPS.get(config.meta_models.feature_group)
        feature_subset = None if group is None else list(group)
        if config.kind == "timedynamic":
            # Section III shares one method list across both meta tasks, so
            # each name must be registered as classifier AND regressor.
            for name in config.meta_models.classifiers:
                if name not in META_CLASSIFIERS or name not in META_REGRESSORS:
                    raise ValueError(
                        f"timedynamic methods must be registered as both "
                        f"meta-classifier and meta-regressor; {name!r} is not "
                        f"(shared by both: "
                        f"{', '.join(sorted(set(META_CLASSIFIERS) & set(META_REGRESSORS)))})"
                    )
        else:
            for name in config.meta_models.classifiers:
                META_CLASSIFIERS.get(name)
            for name in config.meta_models.regressors:
                META_REGRESSORS.get(name)
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

    @staticmethod
    def _check_dataset_kind(config: ExperimentConfig, dataset: object) -> None:
        """Reject kind/dataset mismatches with a config error, not a crash.

        Both names can be perfectly valid registry entries and still not fit
        together (a video substrate for the single-frame kinds, or vice
        versa).  The substrate interface each kind consumes is duck-typed
        and index-based: the stage-1 walk reads ``n_val``/``val_sample(i,
        cache=False)`` (plus ``n_train``/``train_sample`` for the decision
        priors) or ``n_sequences``/``samples(i, cache=False)``.
        """
        if config.kind == "timedynamic":
            required = ("n_sequences", "samples")
            shape = "a video substrate (KITTI-like)"
        else:
            required = ("n_val", "val_sample")
            if config.kind == "decision":
                required += ("n_train", "train_sample")
            shape = "a single-frame substrate (Cityscapes-like)"
        missing = [name for name in required if not hasattr(dataset, name)]
        if missing:
            raise ValueError(
                f"dataset {config.data.dataset!r} does not fit experiment kind "
                f"{config.kind!r}: it lacks {', '.join(missing)}; "
                f"this kind needs {shape}"
            )

    # ------------------------------------------------------------------ ---
    def _report(self, resolved: ResolvedExperiment) -> ExperimentReport:
        config = resolved.config
        return ExperimentReport(
            kind=config.kind, name=config.name, seed=config.seed, config=config.to_dict()
        )

    # ----------------------------------------------------- pipeline factories
    # Shared by the kind runners and the stage-1 shard functions
    # (repro.api.execution), so every shard builds exactly the pipeline the
    # parent would have used.

    def build_metaseg_pipeline(self, resolved: ResolvedExperiment) -> MetaSegPipeline:
        """The MetaSeg pipeline of a resolved config."""
        config = resolved.config
        return MetaSegPipeline(
            resolved.network,
            connectivity=config.extraction.connectivity,
            classification_penalty=config.meta_models.classification_penalty,
            regression_penalty=config.meta_models.regression_penalty,
        )

    def build_timedynamic_pipeline(self, resolved: ResolvedExperiment) -> TimeDynamicPipeline:
        """The time-dynamic pipeline of a resolved config."""
        config = resolved.config
        params = config.meta_models.model_params
        pipeline_kwargs = {}
        if resolved.feature_subset is not None:
            # The metric-group restriction maps to the base features tracked
            # over time (the full time-series vector is built from them).
            pipeline_kwargs["base_features"] = resolved.feature_subset
        return TimeDynamicPipeline(
            test_network=resolved.network,
            reference_network=resolved.reference_network,
            classification_penalty=config.meta_models.classification_penalty,
            regression_penalty=config.meta_models.regression_penalty,
            gradient_boosting_params=params.get("gradient_boosting"),
            neural_network_params=params.get("neural_network"),
            **pipeline_kwargs,
        )

    def build_decision_comparison(self, resolved: ResolvedExperiment) -> DecisionRuleComparison:
        """The decision-rule comparison of a resolved config."""
        config = resolved.config
        return DecisionRuleComparison(
            resolved.network,
            category=config.evaluation.category,
        )

    # ------------------------------------------------------------------ ---
    def _run_metaseg(
        self, resolved: ResolvedExperiment, backend, tracer,
        fit_cache: Optional[FitCache] = None,
    ) -> ExperimentReport:
        config = resolved.config
        pipeline = self.build_metaseg_pipeline(resolved)
        with tracer.span("extract", backend=backend.name) as span:
            metrics, n_images = backend.stage1(resolved)
            span.set(n_images=n_images, n_segments=len(metrics))
        with tracer.span("evaluate", n_runs=config.evaluation.n_runs):
            result = pipeline.run_table1_protocol(
                metrics,
                n_runs=config.evaluation.n_runs,
                train_fraction=config.evaluation.train_fraction,
                random_state=resolved.seeds.protocol,
                classification_methods=resolved.classifiers,
                regression_methods=resolved.regressors,
                feature_subset=resolved.feature_subset,
                model_params=config.meta_models.model_params,
                fit_cache=fit_cache,
            )

        report = self._report(resolved)
        report.provenance.update(
            network=result.network_name,
            n_images=n_images,
            n_segments=result.n_segments,
            false_positive_fraction=result.false_positive_fraction,
            n_runs=result.n_runs,
        )
        classification = _table_rows(
            ({"variant": variant}, metrics_by_name)
            for variant, metrics_by_name in result.classification.items()
        )
        classification.append(
            {"variant": "naive", "metric": "accuracy", "mean": result.naive_accuracy, "std": 0.0}
        )
        regression = _table_rows(
            ({"variant": variant}, metrics_by_name)
            for variant, metrics_by_name in result.regression.items()
        )
        report.tables = {"classification": classification, "regression": regression}
        return report

    def _run_timedynamic(
        self, resolved: ResolvedExperiment, backend, tracer,
        fit_cache: Optional[FitCache] = None,
    ) -> ExperimentReport:
        config = resolved.config
        pipeline = self.build_timedynamic_pipeline(resolved)
        with tracer.span("process", backend=backend.name) as span:
            sequences, _ = backend.stage1(resolved)
            span.set(n_sequences=len(sequences))
        with tracer.span("evaluate", n_runs=config.evaluation.n_runs):
            result = pipeline.run_protocol(
                sequences,
                n_frames_list=config.evaluation.n_frames_list,
                compositions=config.evaluation.compositions,
                methods=resolved.classifiers,
                n_runs=config.evaluation.n_runs,
                split_fractions=config.evaluation.split_fractions,
                augmentation_factor=config.evaluation.augmentation_factor,
                random_state=resolved.seeds.protocol,
                fit_cache=fit_cache,
            )

        report = self._report(resolved)
        report.provenance.update(
            network=resolved.network.profile.name,
            reference_network=resolved.reference_network.profile.name,
            n_sequences=resolved.dataset.n_sequences,
            n_real_segments=result.n_real_segments,
            n_pseudo_segments=result.n_pseudo_segments,
            n_runs=result.n_runs,
        )
        def cells(nested):
            for composition, by_method in nested.items():
                for method, by_frames in by_method.items():
                    for n_frames, metrics_by_name in sorted(by_frames.items()):
                        yield (
                            {"composition": composition, "method": method,
                             "n_frames": n_frames},
                            metrics_by_name,
                        )

        report.tables = {
            "classification": _table_rows(cells(result.classification)),
            "regression": _table_rows(cells(result.regression)),
        }
        return report

    def _decision_priors(
        self, resolved: ResolvedExperiment, tracer, fit_cache: Optional[FitCache]
    ) -> Tuple[np.ndarray, int]:
        """Fit the decision priors, or load them from the store: (priors, n_train).

        The priors are a pure function of the training labels, so with a
        store attached they are cached under :func:`repro.store.priors_key`
        (which excludes the rule/strength/category fields — a rule sweep on
        a fixed substrate reuses one fit), with the training-split size
        alongside for the report's ``n_train_images`` provenance.
        """
        dataset = resolved.dataset
        n_train = int(dataset.n_train)
        if n_train < 1 or int(dataset.n_val) < 1:
            raise ValueError("decision needs data.n_train >= 1 and data.n_val >= 1")
        key = None
        if self.store is not None:
            key = priors_key(resolved.config.to_dict())
            cached = self.store.get(key, codec="pickle")
            if isinstance(cached, dict) and cached.get("n_train") == n_train:
                fit_cache.counters["hits"] += 1
                return cached["priors"], n_train
        with tracer.span("fit_priors", n_train=n_train):
            priors = self.build_decision_comparison(resolved).fit_priors(
                dataset.train_sample(index, cache=False) for index in range(n_train)
            )
        if self.store is not None:
            fit_cache.counters["misses"] += 1
            self.store.put(
                key,
                {"priors": priors, "n_train": n_train},
                codec="pickle",
                provenance={
                    "type": "priors",
                    "kind": resolved.config.kind,
                    "n_train": n_train,
                    "config_hash": key,
                },
            )
        return priors, n_train

    def _run_decision(
        self, resolved: ResolvedExperiment, backend, tracer,
        fit_cache: Optional[FitCache] = None,
    ) -> ExperimentReport:
        # The decision protocol fits no meta-models; its cacheable fit is the
        # pixel priors, fitted (or loaded) once before the walk and shipped
        # to every stage-1 shard.  The walk runs under the "evaluate" span.
        priors, n_train = self._decision_priors(resolved, tracer, fit_cache)
        with tracer.span("evaluate", backend=backend.name):
            result, n_val = backend.stage1(resolved, priors)

        report = self._report(resolved)
        report.provenance.update(
            network=result.network_name,
            category=result.category,
            n_train_images=n_train,
            n_val_images=n_val,
        )
        report.tables = {
            "rules": _table_rows(
                (
                    {"rule": rule},
                    {
                        "precision": mean_std(stats.precision_values),
                        "recall": mean_std(stats.recall_values),
                        "non_detection_rate": (stats.non_detection_rate(), 0.0),
                        "pixel_accuracy": (result.pixel_accuracy[rule], 0.0),
                    },
                )
                for rule, stats in result.per_rule.items()
            )
        }
        return report


def run_experiment(config: Union[ExperimentConfig, Dict[str, object]]) -> ExperimentReport:
    """Convenience one-shot: ``Runner().run(config)``."""
    return Runner().run(config)
