"""MetaSeg: segment-wise false-positive detection and quality estimation.

This subpackage implements the paper's primary contribution (Section II):

1. pixel-wise *dispersion heatmaps* derived from the softmax output
   (:mod:`repro.core.heatmaps`);
2. extraction of predicted and ground-truth *segments* (connected components)
   and their segment-wise IoU (:mod:`repro.core.segments`);
3. aggregation of dispersion and geometry measures into segment-wise
   *metrics* µ(k) (:mod:`repro.core.metrics`) collected in a structured
   dataset (:mod:`repro.core.dataset`);
4. *meta classification* (IoU = 0 vs. IoU > 0, i.e. false-positive detection)
   and *meta regression* (direct IoU prediction) on top of those metrics
   (:mod:`repro.core.meta_classification`, :mod:`repro.core.meta_regression`,
   one construction in :mod:`repro.core.meta_model`);
5. an end-to-end pipeline reproducing the Table I protocol
   (:mod:`repro.core.pipeline`), the nested multi-resolution extension
   (:mod:`repro.core.multiresolution`) and Fig.-1-style visualisations
   (:mod:`repro.core.visualization`).
"""

from repro.core.heatmaps import dispersion_heatmaps
from repro.core.segments import (
    Segmentation,
    extract_segments,
    segment_ious,
    false_negative_segments,
)
from repro.core.metrics import SegmentMetricsExtractor, METRIC_GROUPS
from repro.core.dataset import MetricsDataset
from repro.core.meta_classification import MetaClassifier, naive_baseline_accuracy
from repro.core.meta_regression import MetaRegressor
from repro.core.pipeline import MetaSegPipeline, MetaSegResult
from repro.core.multiresolution import MultiResolutionInference
from repro.core.visualization import (
    labels_to_rgb,
    iou_to_rgb,
    write_ppm,
    render_ascii,
    fig1_panels,
)

__all__ = [
    "dispersion_heatmaps",
    "Segmentation",
    "extract_segments",
    "segment_ious",
    "false_negative_segments",
    "SegmentMetricsExtractor",
    "METRIC_GROUPS",
    "MetricsDataset",
    "MetaClassifier",
    "naive_baseline_accuracy",
    "MetaRegressor",
    "MetaSegPipeline",
    "MetaSegResult",
    "MultiResolutionInference",
    "labels_to_rgb",
    "iou_to_rgb",
    "write_ppm",
    "render_ascii",
    "fig1_panels",
]
