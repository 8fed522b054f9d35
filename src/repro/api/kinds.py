"""The paper's three experiment kinds, one table entry each.

Table I meta classification/regression (``metaseg``), Table II time-dynamic
tracking (``timedynamic``) and the Fig. 5 Bayes-vs-ML decision rules
(``decision``) differ only in the :class:`ExperimentKind` entries of
:data:`KINDS`; the Runner and the stage-1 walk read them and never
compare kind names.  ``resolved`` is a
:class:`repro.api.runner.ResolvedExperiment`, duck-typed here so this module
never imports the runner.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.dataset import MetricsDataset
from repro.core.pipeline import MetaSegPipeline
from repro.decision.pipeline import DecisionRuleComparison
from repro.store import priors_key
from repro.timedynamic.pipeline import TimeDynamicPipeline
from repro.utils.arrays import mean_std

#: A table is a list of flat rows; every row is JSON-serialisable.
Table = List[Dict[str, object]]


def _table_rows(cells) -> Table:
    """Flatten (key-fields, {metric: (mean, std)}) cells into table rows.

    Every report table shares this row shape, so downstream consumers need
    no kind-specific handling.
    """
    rows: Table = []
    for keys, metrics_by_name in cells:
        for metric, (mean, std) in metrics_by_name.items():
            rows.append({**keys, "metric": metric, "mean": mean, "std": std})
    return rows


# --------------------------------------------------------- pipeline factories
# Shared by the shard functions, the folds and the evaluate hooks, so every
# shard builds exactly the pipeline the parent uses.

def metaseg_pipeline(resolved) -> MetaSegPipeline:
    """The MetaSeg pipeline of a resolved config."""
    config = resolved.config
    return MetaSegPipeline(
        resolved.network,
        connectivity=config.extraction.connectivity,
        classification_penalty=config.meta_models.classification_penalty,
        regression_penalty=config.meta_models.regression_penalty,
    )


def timedynamic_pipeline(resolved) -> TimeDynamicPipeline:
    """The time-dynamic pipeline of a resolved config."""
    config = resolved.config
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
        model_params=config.meta_models.model_params,
        **pipeline_kwargs,
    )


def decision_comparison(resolved) -> DecisionRuleComparison:
    """The decision-rule comparison of a resolved config."""
    return DecisionRuleComparison(
        resolved.network, category=resolved.config.evaluation.category
    )


def _val_samples(resolved, start: int, stop: int) -> Iterable:
    """Validation samples ``start..stop``, read lazily one at a time."""
    return (resolved.dataset.val_sample(i) for i in range(start, stop))


# -------------------------------------------------------------------- metaseg
def _metaseg_shard(resolved, start: int, stop: int, priors=None) -> MetricsDataset:
    pipeline = metaseg_pipeline(resolved)
    return pipeline.extract_dataset(_val_samples(resolved, start, stop), index_offset=start)


def _fold_metaseg(resolved, shards: List[MetricsDataset]) -> MetricsDataset:
    return shards[0] if len(shards) == 1 else MetricsDataset.concatenate(shards)


def _evaluate_metaseg(resolved, metrics: MetricsDataset, n_images: int, fit_cache):
    config = resolved.config
    result = metaseg_pipeline(resolved).run_table1_protocol(
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
    provenance = {
        "network": result.network_name,
        "n_images": n_images,
        "n_segments": result.n_segments,
        "false_positive_fraction": result.false_positive_fraction,
        "n_runs": result.n_runs,
    }
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
    return provenance, {"classification": classification, "regression": regression}


# ---------------------------------------------------------------- timedynamic
def _timedynamic_shard(resolved, start: int, stop: int, priors=None) -> List:
    pipeline = timedynamic_pipeline(resolved)
    return list(pipeline.iter_process_dataset(resolved.dataset, start, stop))


def _fold_timedynamic(resolved, shards: List[List]) -> List:
    return list(chain.from_iterable(shards))


def _evaluate_timedynamic(resolved, sequences: List, n_sequences: int, fit_cache):
    config = resolved.config
    result = timedynamic_pipeline(resolved).run_protocol(
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
    provenance = {
        "network": resolved.network.profile.name,
        "reference_network": resolved.reference_network.profile.name,
        "n_sequences": n_sequences,
        "n_real_segments": result.n_real_segments,
        "n_pseudo_segments": result.n_pseudo_segments,
        "n_runs": result.n_runs,
    }

    def cells(nested):
        for composition, by_method in nested.items():
            for method, by_frames in by_method.items():
                for n_frames, metrics_by_name in sorted(by_frames.items()):
                    yield (
                        {"composition": composition, "method": method,
                         "n_frames": n_frames},
                        metrics_by_name,
                    )

    return provenance, {
        "classification": _table_rows(cells(result.classification)),
        "regression": _table_rows(cells(result.regression)),
    }


# ------------------------------------------------------------------- decision
def _decision_priors(resolved, store, tracer, fit_cache):
    """Fit the decision priors once before the walk, or load them.

    The priors are a pure function of the training labels, so with a store
    attached they are cached under :func:`repro.store.priors_key` (which
    excludes the rule/strength/category fields — a rule sweep on a fixed
    substrate reuses one fit), with the training-split size alongside.
    """
    dataset = resolved.dataset
    n_train = int(dataset.n_train)
    if n_train < 1 or int(dataset.n_val) < 1:
        raise ValueError("decision needs data.n_train >= 1 and data.n_val >= 1")

    def fit(indices):
        with tracer.span("fit_priors", n_train=n_train):
            return [decision_comparison(resolved).fit_priors(
                dataset.train_sample(index) for index in range(n_train)
            )]

    if store is None:
        return fit(None)[0]

    def decode(payload):
        if payload["n_train"] != n_train:
            raise ValueError("priors fitted on another training split")
        return payload["priors"]

    key = priors_key(resolved.config.to_dict())
    (priors,), (hit,) = store.get_or_compute(
        [key],
        fit,
        codec="pickle",
        provenance=[{
            "type": "priors",
            "kind": resolved.config.kind,
            "n_train": n_train,
            "config_hash": key,
        }],
        encode=lambda priors: {"priors": priors, "n_train": n_train},
        decode=decode,
    )
    fit_cache.counters["hits" if hit else "misses"] += 1
    return priors


def _decision_shard(resolved, start: int, stop: int, priors=None) -> List:
    comparison = decision_comparison(resolved)
    comparison.set_priors(priors)
    return list(
        comparison.iter_compare_samples(
            _val_samples(resolved, start, stop),
            rules=resolved.rules,
            index_offset=start,
            strengths=resolved.config.evaluation.strengths,
        )
    )


def _fold_decision(resolved, shards: List[List]):
    result, _ = decision_comparison(resolved).fold_compare_results(
        chain.from_iterable(shards), rules=resolved.rules
    )
    return result


def _evaluate_decision(resolved, result, n_val: int, fit_cache):
    # The walk already ran every rule over the validation split; only the
    # tables are shaped here.
    provenance = {
        "network": result.network_name,
        "category": result.category,
        "n_train_images": int(resolved.dataset.n_train),
        "n_val_images": n_val,
    }
    rules = _table_rows(
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
    return provenance, {"rules": rules}


# ---------------------------------------------------------------------- table
class ExperimentKind(NamedTuple):
    """One experiment kind: its substrate, stage-1 walk and protocol."""

    #: Substrate attribute holding the stage-1 item count.
    size: str
    #: Every substrate attribute the kind reads (checked at resolve time).
    reads: Tuple[str, ...]
    #: The substrate shape the kind needs, for the mismatch error.
    substrate: str
    #: Name of the stage-1 span (``report.timings`` and the ledger key on it).
    span: str
    #: ``(resolved, start, stop, priors) -> payload`` over items
    #: ``[start, stop)``, read by index and uncached, one item at a time.
    shard: Callable
    #: ``(resolved, payloads) -> stage-1 result``, payloads in shard order.
    fold: Callable
    #: ``(resolved, result, n_items, fit_cache) -> (provenance, tables)``.
    evaluate: Callable
    #: ``(resolved, store, tracer, fit_cache) -> priors`` run in the parent
    #: before the walk; the result rides along to every shard.
    prepare: Optional[Callable] = None
    #: Walks video sequences (Section III): needs a simulated reference
    #: network, and one method list serves both meta tasks.
    video: bool = False


_SINGLE_FRAME = "a single-frame substrate (Cityscapes-like)"

#: Every experiment kind by name, in :data:`repro.api.config.EXPERIMENT_KINDS` order.
KINDS: Dict[str, ExperimentKind] = {
    "metaseg": ExperimentKind(
        size="n_val", reads=("n_val", "val_sample"), substrate=_SINGLE_FRAME,
        span="extract", shard=_metaseg_shard, fold=_fold_metaseg,
        evaluate=_evaluate_metaseg,
    ),
    "timedynamic": ExperimentKind(
        size="n_sequences", reads=("n_sequences", "samples"),
        substrate="a video substrate (KITTI-like)",
        span="process", shard=_timedynamic_shard, fold=_fold_timedynamic,
        evaluate=_evaluate_timedynamic, video=True,
    ),
    # The decision walk decodes every frame under every rule: it *is* the
    # evaluation, so it runs under the "evaluate" span.
    "decision": ExperimentKind(
        size="n_val", reads=("n_val", "val_sample", "n_train", "train_sample"),
        substrate=_SINGLE_FRAME,
        span="evaluate", shard=_decision_shard, fold=_fold_decision,
        evaluate=_evaluate_decision, prepare=_decision_priors,
    ),
}
