#!/usr/bin/env python
"""Time-dynamic MetaSeg: online quality monitoring of a video stream.

This example follows Section III of the paper: a KITTI-like video dataset
with sparse ground truth, a weaker network under test (MobilenetV2 profile),
a stronger reference network providing pseudo ground truth (Xception65
profile), segment tracking over time, and meta models trained on different
training-data compositions (R / RA / RAP / RP / P).

The script prints

* tracking statistics (how long segments survive),
* AUROC of false-positive detection as a function of the number of
  considered frames (the Fig. 2 quantity),
* the best configuration per composition (the Table II quantity),
* the improvement over a single-frame linear-model baseline.

Run with::

    python examples/video_quality_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    KittiLikeDataset,
    SimulatedSegmentationNetwork,
    TimeDynamicPipeline,
    mobilenetv2_profile,
    xception65_profile,
)
from repro.segmentation.scene import SceneConfig
from repro.segmentation.sequence import SequenceConfig


def main() -> None:
    # --- synthetic KITTI-like video data ------------------------------------
    dataset = KittiLikeDataset(
        n_sequences=3,
        sequence_config=SequenceConfig(
            n_frames=10, scene_config=SceneConfig(height=80, width=160)
        ),
        labeled_stride=3,
        random_state=0,
    )
    print(f"{dataset.n_sequences} sequences x {dataset.n_frames_per_sequence} frames, "
          f"{dataset.n_labeled_frames()} frames with ground truth "
          "(the paper has 29 sequences / ~12k frames / 142 labelled)")

    # --- networks: under test + pseudo-ground-truth reference ---------------
    pipeline = TimeDynamicPipeline(
        test_network=SimulatedSegmentationNetwork(mobilenetv2_profile(), random_state=1),
        reference_network=SimulatedSegmentationNetwork(xception65_profile(), random_state=2),
        model_params={
            "gradient_boosting": {"n_estimators": 30, "max_depth": 3, "max_features": "sqrt"},
            "neural_network": {"hidden_layer_sizes": (24,), "n_epochs": 60},
        },
    )

    print("\nrunning per-frame inference, pseudo labelling and segment tracking ...")
    sequences = pipeline.process_dataset(dataset)
    lengths = np.array(
        [len(track.segment_history) for seq in sequences for track in seq.tracks.values()]
    )
    print(f"  {int(lengths.size)} tracks, mean length {lengths.mean():.2f} frames, "
          f"max length {int(lengths.max())} frames")

    # --- meta tasks over time-series lengths and compositions ----------------
    print("\nevaluating meta classification/regression "
          "(compositions R and RP, gradient boosting + neural network) ...")
    result = pipeline.run_protocol(
        sequences,
        n_frames_list=(0, 2, 4, 6),
        compositions=("R", "RP"),
        methods=("gradient_boosting", "neural_network"),
        n_runs=3,
        random_state=3,
    )
    print(f"  {result.n_real_segments} segments with real targets, "
          f"{result.n_pseudo_segments} with pseudo targets")

    for composition in ("R", "RP"):
        for method in ("gradient_boosting", "neural_network"):
            series = result.auroc_series(composition, method)
            rendered = "  ".join(f"{n}: {mean:.3f}" for n, (mean, _std) in series.items())
            print(f"  AUROC vs #frames  [{composition:<2s} {method:<17s}]  {rendered}")

    print("\nbest configuration per composition (Table II style):")
    for composition in ("R", "RP"):
        for method in ("gradient_boosting", "neural_network"):
            best_cls = result.best_classification(composition, method)
            best_reg = result.best_regression(composition, method)
            print(f"  {composition:<3s} {method:<17s} "
                  f"ACC {100 * best_cls['accuracy'][0]:5.2f}%  "
                  f"AUROC {100 * best_cls['auroc'][0]:5.2f}% (@{best_cls['n_frames']} frames)  "
                  f"R2 {100 * best_reg['r2'][0]:5.2f}% (@{best_reg['n_frames']} frames)")

    reference = pipeline.single_frame_linear_reference(sequences, n_runs=3, random_state=4)
    best_gb = result.best_classification("R", "gradient_boosting")
    best_gb_reg = result.best_regression("R", "gradient_boosting")
    print("\nsingle-frame linear baseline vs. time-dynamic gradient boosting "
          "(the paper reports +5.04 pp. AUROC / +5.63 pp. R2):")
    print(f"  AUROC {100 * reference['auroc'][0]:5.2f}%  ->  {100 * best_gb['auroc'][0]:5.2f}%")
    print(f"  R2    {100 * reference['r2'][0]:5.2f}%  ->  {100 * best_gb_reg['r2'][0]:5.2f}%")


if __name__ == "__main__":
    main()
