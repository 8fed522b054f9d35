"""Time-dynamic MetaSeg pipeline (Fig. 2 and Table II of the paper).

Protocol, following Section III:

1. run the network under test (MobilenetV2 profile) on every frame of every
   sequence of a KITTI-like video dataset;
2. run the reference network (Xception65 profile) on every *unlabelled* frame
   to obtain pseudo ground truth;
3. extract per-frame segment metrics, track segments over time and build
   time-series feature vectors for history lengths 0..n;
4. split the segments with real ground truth 70 %/10 %/20 % into
   train/val/test, assemble the R / RA / RAP / RP / P training compositions
   (augmented and pseudo data are only ever added to the training part) and
   fit gradient-boosting and l2-penalised neural-network meta models;
5. report ACC/AUROC (meta classification) and σ/R² (meta regression) on the
   real test split, per composition, model and number of considered frames,
   averaged over random resamplings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import MetricsDataset
from repro.core.meta_classification import MetaClassifier
from repro.core.meta_regression import MetaRegressor
from repro.core.metrics import SegmentMetricsExtractor
from repro.evaluation.classification import accuracy, auroc
from repro.evaluation.regression import r2_score, residual_std
from repro.segmentation.datasets import KittiLikeDataset, global_frame_index
from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.segmentation.network import SimulatedSegmentationNetwork
from repro.timedynamic.compositions import COMPOSITIONS, assemble_composition
from repro.timedynamic.time_series import (
    DEFAULT_BASE_FEATURES,
    SequenceMetrics,
    TimeSeriesBuilder,
    build_time_series_dataset,
)
from repro.store.fits import fit_model
from repro.utils.arrays import mean_std_by_key
from repro.utils.rng import RandomState, as_rng

#: Section III model parameters by method; an entry of the pipeline's
#: ``model_params`` replaces the method's entry here.
SECTION_III_PARAMS: Dict[str, dict] = {
    "gradient_boosting": {
        "n_estimators": 40, "max_depth": 3, "max_features": "sqrt", "subsample": 0.8,
    },
    "neural_network": {"hidden_layer_sizes": (24,), "n_epochs": 80, "batch_size": 64},
}


@dataclass
class TimeDynamicResult:
    """Results per composition, model family and number of considered frames.

    ``classification[composition][method][n_frames]`` is a dict with keys
    ``accuracy`` and ``auroc`` mapping to (mean, std) tuples; ``regression``
    is analogous with keys ``sigma`` and ``r2``.
    """

    classification: Dict[str, Dict[str, Dict[int, Dict[str, Tuple[float, float]]]]] = field(
        default_factory=dict
    )
    regression: Dict[str, Dict[str, Dict[int, Dict[str, Tuple[float, float]]]]] = field(
        default_factory=dict
    )
    n_runs: int = 0
    n_real_segments: int = 0
    n_pseudo_segments: int = 0

    # ------------------------------------------------------------------ ---
    def best_classification(self, composition: str, method: str) -> Dict[str, object]:
        """Best AUROC over the number of frames (the Table II superscript)."""
        per_frames = self.classification[composition][method]
        best_frames = max(per_frames, key=lambda n: per_frames[n]["auroc"][0])
        return {
            "n_frames": best_frames,
            "accuracy": per_frames[best_frames]["accuracy"],
            "auroc": per_frames[best_frames]["auroc"],
        }

    def best_regression(self, composition: str, method: str) -> Dict[str, object]:
        """Best R² over the number of frames (the Table II superscript)."""
        per_frames = self.regression[composition][method]
        best_frames = max(per_frames, key=lambda n: per_frames[n]["r2"][0])
        return {
            "n_frames": best_frames,
            "sigma": per_frames[best_frames]["sigma"],
            "r2": per_frames[best_frames]["r2"],
        }

    def auroc_series(self, composition: str, method: str) -> Dict[int, Tuple[float, float]]:
        """AUROC as a function of the number of considered frames (Fig. 2)."""
        per_frames = self.classification[composition][method]
        return {n: per_frames[n]["auroc"] for n in sorted(per_frames)}


class TimeDynamicPipeline:
    """Orchestrates the Section III experiments on a KITTI-like video dataset.

    ``model_params`` maps a method name to the keyword arguments its meta
    models get (the config's ``meta_models.model_params`` shape); an entry
    replaces that method's :data:`SECTION_III_PARAMS` entry.  Every method
    is built as ``MetaClassifier(method, penalty=..., random_state=...,
    **params)`` (and likewise ``MetaRegressor``) with the task's penalty.
    """

    def __init__(
        self,
        test_network: SimulatedSegmentationNetwork,
        reference_network: SimulatedSegmentationNetwork,
        label_space: Optional[LabelSpace] = None,
        base_features: Sequence[str] = DEFAULT_BASE_FEATURES,
        classification_penalty: float = 1e-3,
        regression_penalty: float = 1e-3,
        model_params: Optional[Dict[str, dict]] = None,
    ) -> None:
        self.test_network = test_network
        self.reference_network = reference_network
        self.label_space = label_space or cityscapes_label_space()
        self.base_features = list(base_features)
        self.classification_penalty = float(classification_penalty)
        self.regression_penalty = float(regression_penalty)
        self.model_params = {**SECTION_III_PARAMS, **(model_params or {})}
        self.builder = TimeSeriesBuilder(
            extractor=SegmentMetricsExtractor(label_space=self.label_space)
        )

    # ------------------------------------------------------------------ ---
    def _process_sequence(
        self, dataset: KittiLikeDataset, sequence_index: int
    ) -> SequenceMetrics:
        """Inference, pseudo labelling, extraction and tracking for one sequence.

        Both per-frame hot paths are sparse single-pass computations: metric
        extraction runs the fused aggregation of
        :class:`~repro.core.metrics.SegmentMetricsExtractor` (one top-2
        partition + grouped bincounts) and the tracker matches segments via
        :func:`~repro.timedynamic.tracking.match_segments`'s contingency
        table, so per-frame cost is O(H×W) rather than O(n_segments × H×W).
        """
        frames_per_sequence = dataset.n_frames_per_sequence
        samples = dataset.samples(sequence_index)
        probability_fields = []
        real_gt: List[Optional[np.ndarray]] = []
        pseudo_gt: List[Optional[np.ndarray]] = []
        for sample in samples:
            frame_id = global_frame_index(
                sequence_index, sample.frame_index, frames_per_sequence
            )
            probability_fields.append(
                self.test_network.predict_probabilities(sample.labels, index=frame_id)
            )
            real_gt.append(sample.labels if sample.has_ground_truth else None)
            if sample.has_ground_truth:
                # Pseudo ground truth is only generated where no real
                # ground truth exists (as in the paper).
                pseudo_gt.append(None)
            else:
                pseudo_gt.append(
                    self.reference_network.predict_labels(sample.labels, index=frame_id)
                )
        return self.builder.process_sequence(
            probability_fields, real_gt, pseudo_gt, sequence_id=sequence_index
        )

    def process_dataset(self, dataset: KittiLikeDataset) -> List[SequenceMetrics]:
        """Run inference, pseudo labelling, metric extraction and tracking.

        The list of :meth:`iter_process_dataset`, ordered by sequence index.
        """
        return list(self.iter_process_dataset(dataset))

    def iter_process_dataset(
        self,
        dataset: KittiLikeDataset,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> "Iterator[SequenceMetrics]":
        """Yield the :class:`SequenceMetrics` of sequences ``start..stop``.

        Sequences are independent (network RNG is derived from the global
        frame index, tracking state lives per sequence), so any range yields
        exactly the matching slice of the full walk.  The raw frames of a
        sequence are regenerated uncached and released once it is
        processed, so a consumer holds the compact per-sequence metrics but
        never the pixel data of the whole dataset.  The ``start``/``stop``
        range is the stage-1 shard unit.
        """
        if stop is None:
            stop = dataset.n_sequences
        if not 0 <= start <= stop <= dataset.n_sequences:
            raise ValueError(
                f"invalid sequence range [{start}, {stop}) for "
                f"{dataset.n_sequences} sequences"
            )
        for sequence_index in range(start, stop):
            yield self._process_sequence(dataset, sequence_index)

    # ------------------------------------------------------------------ ---
    def run_protocol(
        self,
        sequences: Sequence[SequenceMetrics],
        n_frames_list: Sequence[int] = tuple(range(0, 11)),
        compositions: Sequence[str] = COMPOSITIONS,
        methods: Sequence[str] = ("gradient_boosting", "neural_network"),
        n_runs: int = 10,
        split_fractions: Sequence[float] = (0.7, 0.1, 0.2),
        augmentation_factor: float = 1.0,
        random_state: RandomState = 0,
        fit_cache=None,
    ) -> TimeDynamicResult:
        """Evaluate meta classification and regression for all configurations.

        ``fit_cache`` (an optional :class:`repro.store.FitCache`) loads
        previously performed meta-model fits from the store instead of
        re-fitting; bitwise neutral because every model's internal RNG is
        derived from the per-run seed, never from the shared protocol stream.
        """
        for composition in compositions:
            if composition not in COMPOSITIONS:
                raise ValueError(f"unknown composition {composition!r}")
        for method in methods:
            # Methods are shared between the two meta tasks (as in Table II),
            # so a name must be a family of both.
            if method not in MetaClassifier.FAMILIES or method not in MetaRegressor.FAMILIES:
                raise ValueError(f"unsupported method {method!r}")
        rng = as_rng(random_state)
        result = TimeDynamicResult(n_runs=n_runs)

        # Pre-build the datasets per history length (shared by all runs).
        real_datasets: Dict[int, MetricsDataset] = {}
        pseudo_datasets: Dict[int, MetricsDataset] = {}
        for n_frames in n_frames_list:
            real_datasets[n_frames] = build_time_series_dataset(
                sequences, n_previous=n_frames, target="real", base_features=self.base_features
            )
            pseudo_datasets[n_frames] = build_time_series_dataset(
                sequences, n_previous=n_frames, target="pseudo", base_features=self.base_features
            )
        result.n_real_segments = len(real_datasets[list(n_frames_list)[0]])
        result.n_pseudo_segments = len(pseudo_datasets[list(n_frames_list)[0]])

        collect_cls: Dict[Tuple[str, str, int], List[Dict[str, float]]] = {}
        collect_reg: Dict[Tuple[str, str, int], List[Dict[str, float]]] = {}
        for _ in range(n_runs):
            run_seed = int(rng.integers(0, 2**31 - 1))
            for n_frames in n_frames_list:
                real = real_datasets[n_frames]
                pseudo = pseudo_datasets[n_frames]
                train, _val, test = real.split(split_fractions, random_state=run_seed)
                test_cls_targets = test.target_iou0()
                test_reg_targets = test.target_iou()
                for composition in compositions:
                    training = assemble_composition(
                        composition, train, pseudo,
                        augmentation_factor=augmentation_factor, random_state=run_seed,
                    )
                    for method in methods:
                        split = {
                            "protocol": "timedynamic",
                            "run_seed": run_seed,
                            "n_frames": int(n_frames),
                            "composition": composition,
                            "split_fractions": list(split_fractions),
                            "augmentation_factor": float(augmentation_factor),
                        }
                        params = self.model_params.get(method, {})
                        classifier = fit_model(
                            MetaClassifier(
                                method, penalty=self.classification_penalty,
                                random_state=run_seed, **params,
                            ),
                            training, {**split, "task": "classification"}, fit_cache,
                        )
                        scores = classifier.predict_proba(test)
                        collect_cls.setdefault((composition, method, n_frames), []).append({
                            "accuracy": accuracy(
                                test_cls_targets, (scores >= 0.5).astype(np.int64)
                            ),
                            "auroc": auroc(test_cls_targets, scores),
                        })
                        regressor = fit_model(
                            MetaRegressor(
                                method, penalty=self.regression_penalty,
                                random_state=run_seed, **params,
                            ),
                            training, {**split, "task": "regression"}, fit_cache,
                        )
                        predictions = regressor.predict(test)
                        collect_reg.setdefault((composition, method, n_frames), []).append({
                            "sigma": residual_std(test_reg_targets, predictions),
                            "r2": r2_score(test_reg_targets, predictions),
                        })

        for (composition, method, n_frames), runs in collect_cls.items():
            result.classification.setdefault(composition, {}).setdefault(method, {})[n_frames] = (
                mean_std_by_key(runs)
            )
        for (composition, method, n_frames), runs in collect_reg.items():
            result.regression.setdefault(composition, {}).setdefault(method, {})[n_frames] = (
                mean_std_by_key(runs)
            )
        return result

    # ------------------------------------------------------------------ ---
    def single_frame_linear_reference(
        self,
        sequences: Sequence[SequenceMetrics],
        n_runs: int = 10,
        split_fractions: Sequence[float] = (0.7, 0.1, 0.2),
        random_state: RandomState = 0,
    ) -> Dict[str, Tuple[float, float]]:
        """Single-frame linear-model reference (the baseline the paper improves on).

        Section III quotes gains of +5.04 pp. AUROC and +5.63 pp. R² of the
        time-dynamic gradient-boosting models over the single-frame linear
        models; this helper provides the latter.  The linear regressor is
        fitted at :attr:`regression_penalty`: the base features hold
        V_mean + pmax_mean = 1, so unpenalised normal equations are singular.
        """
        rng = as_rng(random_state)
        dataset = build_time_series_dataset(
            sequences, n_previous=0, target="real", base_features=self.base_features
        )
        runs: List[Dict[str, float]] = []
        for _ in range(n_runs):
            run_seed = int(rng.integers(0, 2**31 - 1))
            train, _val, test = dataset.split(split_fractions, random_state=run_seed)
            classifier = MetaClassifier(method="logistic", penalty=0.0, random_state=run_seed)
            classifier.fit(train)
            scores = classifier.predict_proba(test)
            regressor = MetaRegressor(
                method="linear", penalty=self.regression_penalty, random_state=run_seed
            )
            regressor.fit(train)
            predictions = regressor.predict(test)
            runs.append({
                "accuracy": accuracy(test.target_iou0(), (scores >= 0.5).astype(np.int64)),
                "auroc": auroc(test.target_iou0(), scores),
                "sigma": residual_std(test.target_iou(), predictions),
                "r2": r2_score(test.target_iou(), predictions),
            })
        return mean_std_by_key(runs)
