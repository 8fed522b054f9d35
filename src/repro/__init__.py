"""repro — reproduction of "Detection of False Positive and False Negative
Samples in Semantic Segmentation" (Rottmann et al., DATE 2020).

The package implements the paper's three systems and every substrate they
need, offline and from scratch:

* :mod:`repro.core` — MetaSeg: segment-wise false-positive detection (meta
  classification) and IoU prediction (meta regression) from aggregated
  dispersion and geometry metrics (Section II);
* :mod:`repro.timedynamic` — time-dynamic MetaSeg on video with segment
  tracking, SMOTE augmentation and pseudo ground truth (Section III);
* :mod:`repro.decision` — false-negative reduction via Maximum-Likelihood and
  cost-based decision rules with position-specific priors (Section IV);
* :mod:`repro.segmentation` — the synthetic street-scene + simulated-network
  substrate standing in for Cityscapes/KITTI and DeepLabv3+;
* :mod:`repro.models` — from-scratch logistic/linear regression, gradient
  boosting and shallow neural networks used as meta models;
* :mod:`repro.evaluation` — accuracy, AUROC, R², σ, IoU and empirical-CDF
  machinery used by the paper's tables and figures.

Quick start::

    from repro import (
        CityscapesLikeDataset, SimulatedSegmentationNetwork,
        mobilenetv2_profile, MetaSegPipeline,
    )

    dataset = CityscapesLikeDataset(n_train=10, n_val=20, random_state=0)
    network = SimulatedSegmentationNetwork(mobilenetv2_profile(), random_state=1)
    pipeline = MetaSegPipeline(network)
    metrics = pipeline.extract_dataset(dataset.val_samples())
    result = pipeline.run_table1_protocol(metrics, n_runs=10)
    print("\\n".join(result.summary_rows()))
"""

from repro.version import __version__

# Substrate ------------------------------------------------------------------
from repro.segmentation import (
    LabelSpec,
    LabelSpace,
    cityscapes_label_space,
    Scene,
    SceneConfig,
    SceneObject,
    StreetSceneGenerator,
    SequenceConfig,
    SequenceGenerator,
    SceneSequence,
    NetworkProfile,
    SimulatedSegmentationNetwork,
    xception65_profile,
    mobilenetv2_profile,
    CityscapesLikeDataset,
    KittiLikeDataset,
    SegmentationSample,
)

# MetaSeg core ----------------------------------------------------------------
from repro.core import (
    MetaSegPipeline,
    MetaSegResult,
    MetaClassifier,
    MetaRegressor,
    MetricsDataset,
    SegmentMetricsExtractor,
    MultiResolutionInference,
    extract_segments,
    segment_ious,
    false_negative_segments,
)

# Time-dynamic MetaSeg ---------------------------------------------------------
from repro.timedynamic import (
    SegmentTracker,
    TimeSeriesBuilder,
    build_time_series_dataset,
    smote_regression,
    TimeDynamicPipeline,
    TimeDynamicResult,
    COMPOSITIONS,
)

# Decision rules ----------------------------------------------------------------
from repro.decision import (
    PixelPriorEstimator,
    bayes_rule,
    maximum_likelihood_rule,
    DecisionRuleComparison,
    DecisionRuleResult,
)

# Unified experiment API --------------------------------------------------------
# Imported last: the api.runner module builds on the pipelines above, and the
# registry names the components those modules define.
from repro.api import (
    ConfigError,
    ExperimentConfig,
    DataConfig,
    NetworkConfig,
    ExtractionConfig,
    ExecutionConfig,
    MetaModelConfig,
    EvalConfig,
    ExperimentReport,
    Runner,
    all_registries,
)

# Result store + sweep driver: build on the api layer (imported above), so
# these imports stay cycle-free here.
from repro.store import ResultStore
from repro.sweep import SweepConfig, SweepResult, run_sweep

__all__ = [
    "__version__",
    # substrate
    "LabelSpec",
    "LabelSpace",
    "cityscapes_label_space",
    "Scene",
    "SceneConfig",
    "SceneObject",
    "StreetSceneGenerator",
    "SequenceConfig",
    "SequenceGenerator",
    "SceneSequence",
    "NetworkProfile",
    "SimulatedSegmentationNetwork",
    "xception65_profile",
    "mobilenetv2_profile",
    "CityscapesLikeDataset",
    "KittiLikeDataset",
    "SegmentationSample",
    # core
    "MetaSegPipeline",
    "MetaSegResult",
    "MetaClassifier",
    "MetaRegressor",
    "MetricsDataset",
    "SegmentMetricsExtractor",
    "MultiResolutionInference",
    "extract_segments",
    "segment_ious",
    "false_negative_segments",
    # time-dynamic
    "SegmentTracker",
    "TimeSeriesBuilder",
    "build_time_series_dataset",
    "smote_regression",
    "TimeDynamicPipeline",
    "TimeDynamicResult",
    "COMPOSITIONS",
    # decision rules
    "PixelPriorEstimator",
    "bayes_rule",
    "maximum_likelihood_rule",
    "DecisionRuleComparison",
    "DecisionRuleResult",
    # unified experiment API
    "ConfigError",
    "ExperimentConfig",
    "DataConfig",
    "NetworkConfig",
    "ExtractionConfig",
    "ExecutionConfig",
    "MetaModelConfig",
    "EvalConfig",
    "ExperimentReport",
    "Runner",
    "all_registries",
    # result store + sweeps
    "ResultStore",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
]
