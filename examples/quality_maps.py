#!/usr/bin/env python
"""Segment-wise quality maps: reproducing the Fig. 1 visualisation.

Meta regression predicts every predicted segment's IoU *without ground
truth*.  This example trains the meta regressor on a handful of images,
applies it to a held-out image and writes the four Fig.-1 panels (ground
truth, prediction, true IoU, predicted IoU) as PPM files, plus an ASCII
preview of the predicted-quality map.

It also demonstrates the multi-resolution extension ([18] in the paper):
the same image is additionally processed with a nested-crop ensemble and the
extended metrics are compared against the plain single-inference metrics.

Run with::

    python examples/quality_maps.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import (
    CityscapesLikeDataset,
    MetaSegPipeline,
    SimulatedSegmentationNetwork,
    xception65_profile,
)
from repro.core.meta_regression import MetaRegressor
from repro.core.multiresolution import MultiResolutionInference
from repro.core.visualization import fig1_panels, render_ascii, write_ppm
from repro.evaluation.regression import r2_score
from repro.segmentation.scene import SceneConfig

ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"


def main() -> None:
    dataset = CityscapesLikeDataset(
        n_train=0,
        n_val=16,
        scene_config=SceneConfig(height=96, width=192),
        random_state=4,
    )
    network = SimulatedSegmentationNetwork(xception65_profile(), random_state=5)
    pipeline = MetaSegPipeline(network)

    # Train the meta regressor on all but the last validation image.
    training_samples = dataset.val_samples()[:-1]
    held_out = dataset.val_samples()[-1]
    training_metrics = pipeline.extract_dataset(training_samples)
    regressor = MetaRegressor(method="linear", penalty=1.0).fit(training_metrics)

    # Apply to the held-out image and assemble the Fig. 1 panels.
    probs = network.predict_probabilities(held_out.labels, index=len(training_samples))
    image_metrics = pipeline.extractor.extract_full(
        probs, gt_labels=held_out.labels, image_id=held_out.image_id
    )
    predicted_iou = regressor.predict(image_metrics.dataset)
    true_iou = image_metrics.dataset.target_iou()
    print(f"held-out image: {len(image_metrics.dataset)} segments, "
          f"IoU prediction R2 = {100 * r2_score(true_iou, predicted_iou):.1f}%")

    # Dataset rows are the segments 1..n, so both IoU arrays align with ids.
    panels = fig1_panels(held_out.labels, image_metrics.prediction, true_iou, predicted_iou)
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    for name, rgb in panels.items():
        write_ppm(ARTIFACT_DIR / f"fig1_{name}.ppm", rgb)
    print(f"wrote Fig.-1 panels to {ARTIFACT_DIR}/fig1_*.ppm")

    # Background (id 0) reads 0; segment id k reads predicted_iou[k - 1].
    predicted_map = np.concatenate(([0.0], predicted_iou))[image_metrics.prediction.components]
    print("\npredicted segment quality (bright = high predicted IoU):")
    print(render_ascii(predicted_map, width=72))

    # Multi-resolution ensemble (the [18] extension).
    pyramid = MultiResolutionInference(network, crop_fractions=(1.0, 0.8, 0.6))
    extended = pyramid.extract(held_out.labels, index=999, image_id=held_out.image_id)
    extra = [name for name in extended.feature_names if name.endswith(("_ens_mean", "_ens_var"))]
    print(f"\nmulti-resolution ensemble adds {len(extra)} metrics: {', '.join(extra)}")


if __name__ == "__main__":
    main()
