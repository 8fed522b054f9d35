"""End-to-end MetaSeg pipeline reproducing the Section II / Table I protocol.

The pipeline wires the substrate and the core pieces together:

1. run the (simulated) segmentation network on every image of a dataset,
2. extract the structured dataset M of segment metrics with IoU targets,
3. repeatedly split M into meta train / meta test (80 %/20 % by default),
4. fit and evaluate the meta classification and meta regression variants of
   Table I (penalised, unpenalised, entropy-only, naive baseline),
5. aggregate means and standard deviations over the runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.registry import META_CLASSIFIERS, META_REGRESSORS
from repro.core.dataset import MetricsDataset
from repro.core.meta_classification import entropy_baseline_classifier, naive_baseline_accuracy
from repro.core.meta_regression import entropy_baseline_regressor
from repro.core.metrics import SegmentMetricsExtractor
from repro.evaluation.regression import pearson_correlation
from repro.segmentation.datasets import SegmentationSample
from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.segmentation.network import SimulatedSegmentationNetwork
from repro.store.fits import fit_model
from repro.utils.arrays import mean_std_by_key
from repro.utils.rng import RandomState, as_rng


@dataclass
class MetaSegResult:
    """Aggregated Table-I-style result of one MetaSeg evaluation run.

    ``classification`` and ``regression`` map a variant name (e.g.
    ``"penalized"``, ``"entropy_only"``) to a dict of metric name →
    ``(mean, std)`` over the random resampling runs.
    """

    network_name: str
    n_segments: int
    false_positive_fraction: float
    n_runs: int
    classification: Dict[str, Dict[str, Tuple[float, float]]] = field(default_factory=dict)
    regression: Dict[str, Dict[str, Tuple[float, float]]] = field(default_factory=dict)
    naive_accuracy: float = 0.0

    def summary_rows(self) -> List[str]:
        """Human-readable rows mirroring the layout of Table I."""
        rows = [f"network: {self.network_name}  segments: {self.n_segments}  "
                f"FP fraction: {self.false_positive_fraction:.3f}  runs: {self.n_runs}"]
        rows.append("Meta Classification IoU = 0, > 0")
        for variant, metrics in self.classification.items():
            for metric in ("train_accuracy", "test_accuracy", "train_auroc", "test_auroc"):
                mean, std = metrics[metric]
                rows.append(f"  {metric:<16s} {variant:<14s} {100 * mean:6.2f}% (+/-{100 * std:4.2f}%)")
        rows.append(f"  accuracy         naive          {100 * self.naive_accuracy:6.2f}%")
        rows.append("Meta Regression IoU")
        for variant, metrics in self.regression.items():
            for metric in ("train_sigma", "test_sigma", "train_r2", "test_r2"):
                mean, std = metrics[metric]
                if "sigma" in metric:
                    rows.append(f"  {metric:<16s} {variant:<14s} {mean:6.3f} (+/-{std:5.3f})")
                else:
                    rows.append(f"  {metric:<16s} {variant:<14s} {100 * mean:6.2f}% (+/-{100 * std:4.2f}%)")
        return rows


class MetaSegPipeline:
    """Orchestrates network inference, metric extraction and the meta tasks.

    Parameters
    ----------
    network:
        A (simulated) segmentation network exposing ``predict_probabilities``.
    label_space:
        Label space shared by network and metric extractor.
    connectivity:
        Connectivity of the segment decomposition.
    classification_penalty, regression_penalty:
        l2 strengths of the "penalized" variants of Table I.
    """

    def __init__(
        self,
        network: SimulatedSegmentationNetwork,
        label_space: Optional[LabelSpace] = None,
        connectivity: int = 8,
        classification_penalty: float = 1.0,
        regression_penalty: float = 1.0,
    ) -> None:
        self.network = network
        self.label_space = label_space or cityscapes_label_space()
        self.extractor = SegmentMetricsExtractor(
            label_space=self.label_space, connectivity=connectivity
        )
        self.classification_penalty = float(classification_penalty)
        self.regression_penalty = float(regression_penalty)

    # ------------------------------------------------------------------ ---
    def extract_dataset(
        self,
        samples: Iterable[SegmentationSample],
        index_offset: int = 0,
    ) -> MetricsDataset:
        """Run inference and metric extraction over an iterable of samples.

        A lazy sample stream is never materialised: each image's field is
        dropped once its metric rows are extracted, and the per-image
        datasets (45 float64 columns per segment, small next to a field)
        are folded by one :meth:`MetricsDataset.concatenate`.
        ``index_offset`` is the global index of the first sample (it seeds
        the network's per-image noise, which is what lets a shard of
        ``[start, stop)`` reproduce the serial rows).
        """
        parts = []
        for index, sample in enumerate(samples, start=index_offset):
            probs = self.network.predict_probabilities(sample.labels, index=index)
            parts.append(
                self.extractor.extract(probs, gt_labels=sample.labels, image_id=sample.image_id)
            )
        if not parts:
            raise ValueError("no samples provided")
        return MetricsDataset.concatenate(parts)

    # ------------------------------------------------------------------ ---
    def run_table1_protocol(
        self,
        dataset: MetricsDataset,
        n_runs: int = 10,
        train_fraction: float = 0.8,
        random_state: RandomState = 0,
        classification_methods: Sequence[str] = ("logistic",),
        regression_methods: Sequence[str] = ("linear",),
        feature_subset: Optional[Sequence[str]] = None,
        model_params: Optional[Dict[str, dict]] = None,
        fit_cache=None,
    ) -> MetaSegResult:
        """Evaluate all Table I variants with repeated random splits.

        Parameters
        ----------
        dataset:
            Structured metrics dataset (with IoU targets) of all segments.
        n_runs:
            Number of random train/test resamplings (the paper uses 10).
        train_fraction:
            Fraction of segments used for meta training (the paper uses 0.8).
        classification_methods, regression_methods:
            Model families to evaluate; the default matches Section II
            (logistic / linear models).  Names are resolved through the
            ``meta_classifiers`` / ``meta_regressors`` registries, so custom
            registered factories work here.  A factory is called as
            ``factory(penalty=..., feature_subset=..., random_state=...,
            **model_params[name])`` and must return an object with the
            ``fit(train)`` / ``evaluate_fitted(train, test)`` protocol of the
            built-in meta models.
        feature_subset:
            Optional metric-group restriction for the main variants (e.g. a
            named group from the ``metric_groups`` registry); ``None`` uses
            all features, as in Table I.  The entropy-only baseline always
            uses its own single feature.
        model_params:
            Optional per-method extra keyword arguments, e.g.
            ``{"gradient_boosting": {"n_estimators": 20}}``; a built-in
            family merges them key by key over its defaults.
        fit_cache:
            Optional :class:`repro.store.FitCache`: previously performed
            meta-model fits are loaded from the store instead of re-fitted.
            Bitwise neutral — every model derives its internal RNG from the
            per-run split seed, never from the shared protocol stream, so
            skipping a fit cannot perturb later runs.  Models without the
            state protocol (custom registry factories) fit in place.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        rng = as_rng(random_state)
        subset = list(feature_subset) if feature_subset is not None else None
        model_params = model_params or {}
        # Resolve the model families up front so unknown names fail fast
        # (before any split is consumed from the RNG stream).
        classifier_factories = {
            method: META_CLASSIFIERS.get(method) for method in classification_methods
        }
        regressor_factories = {
            method: META_REGRESSORS.get(method) for method in regression_methods
        }
        classification_runs: Dict[str, List[Dict[str, float]]] = {}
        regression_runs: Dict[str, List[Dict[str, float]]] = {}

        def evaluate(model, train, test, split):
            """Fit one variant (or load its cached fit) and score it."""
            fitted = fit_model(model, train, split, fit_cache)
            return fitted.evaluate_fitted(train, test).as_dict()

        for _ in range(n_runs):
            split_seed = int(rng.integers(0, 2**31 - 1))
            split = {
                "protocol": "table1",
                "split_seed": split_seed,
                "train_fraction": train_fraction,
            }
            train, test = dataset.split((train_fraction, 1.0 - train_fraction), split_seed)
            for method, factory in classifier_factories.items():
                for variant, penalty in (("penalized", self.classification_penalty),
                                         ("unpenalized", 0.0)):
                    classifier = factory(
                        penalty=penalty, feature_subset=subset, random_state=split_seed,
                        **model_params.get(method, {}),
                    )
                    classification_runs.setdefault(f"{method}_{variant}", []).append(
                        evaluate(classifier, train, test, split)
                    )
            classification_runs.setdefault("entropy_only", []).append(
                evaluate(entropy_baseline_classifier(random_state=split_seed), train, test, split)
            )
            for method, factory in regressor_factories.items():
                regressor = factory(
                    penalty=self.regression_penalty,
                    feature_subset=subset, random_state=split_seed,
                    **model_params.get(method, {}),
                )
                regression_runs.setdefault(f"{method}_all_metrics", []).append(
                    evaluate(regressor, train, test, split)
                )
            regression_runs.setdefault("entropy_only", []).append(
                evaluate(entropy_baseline_regressor(random_state=split_seed), train, test, split)
            )

        result = MetaSegResult(
            network_name=self.network.profile.name,
            n_segments=len(dataset),
            false_positive_fraction=dataset.false_positive_fraction(),
            n_runs=n_runs,
            naive_accuracy=naive_baseline_accuracy(dataset),
        )
        for name, runs in classification_runs.items():
            result.classification[name] = mean_std_by_key(runs)
        for name, runs in regression_runs.items():
            result.regression[name] = mean_std_by_key(runs)
        return result

    # ------------------------------------------------------------------ ---
    def metric_iou_correlations(self, dataset: MetricsDataset) -> Dict[str, float]:
        """Pearson correlation of every metric with the segment IoU.

        Section II reports |R| values of up to ~0.85 for single constructed
        metrics; this method reproduces that analysis.
        """
        iou = dataset.target_iou()
        return {
            name: pearson_correlation(dataset.feature(name), iou)
            for name in dataset.feature_names
        }
