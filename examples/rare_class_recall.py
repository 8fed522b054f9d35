#!/usr/bin/env python
"""False-negative reduction for rare classes via the Maximum-Likelihood rule.

This example follows Section IV of the paper: position-specific class priors
are estimated from training data (Fig. 4), the softmax output of the network
is decoded with the Bayes rule and with the Maximum-Likelihood rule
(Fig. 3), and the segment-wise precision/recall of the category "human" is
compared between the two rules (Fig. 5), including the fraction of completely
overlooked pedestrians F^r(0).  The Fig. 3 masks (with their ground truth)
and the Fig. 4 "human" prior heatmap are written as PPM files to
``examples/artifacts/``.

Run with::

    python examples/rare_class_recall.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import (
    CityscapesLikeDataset,
    DecisionRuleComparison,
    SimulatedSegmentationNetwork,
    mobilenetv2_profile,
    xception65_profile,
)
from repro.core.visualization import labels_to_rgb, render_ascii, write_ppm
from repro.segmentation.scene import SceneConfig

ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"


def main() -> None:
    dataset = CityscapesLikeDataset(
        n_train=24,
        n_val=16,
        scene_config=SceneConfig(height=96, width=192),
        random_state=0,
    )
    # Fig. 3 panels decode the first validation image.
    sample = dataset.val_sample(0)
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    write_ppm(ARTIFACT_DIR / "fig3_ground_truth.ppm", labels_to_rgb(sample.labels))

    for profile in (mobilenetv2_profile(), xception65_profile()):
        network = SimulatedSegmentationNetwork(profile, random_state=1)
        comparison = DecisionRuleComparison(network, category="human")
        comparison.fit_priors(dataset.train_samples())

        # Fig. 4: where do humans occur?  (ASCII rendering of the prior heatmap)
        if profile.name == "mobilenetv2":
            print("position-specific prior of the category 'human' "
                  "(dark = unlikely, bright = likely), cf. Fig. 4:")
            heatmap = comparison.category_prior_heatmap()
            print(render_ascii(heatmap, width=72))
            green = np.zeros((*heatmap.shape, 3), dtype=np.uint8)
            green[..., 1] = np.round(255 * heatmap / heatmap.max()).astype(np.uint8)
            write_ppm(ARTIFACT_DIR / "fig4_human_prior.ppm", green)
            print(f"wrote the Fig.-4 heatmap to {ARTIFACT_DIR}/fig4_human_prior.ppm")

        result = comparison.compare(dataset.val_samples(), rules=("bayes", "ml"))
        print()
        print("\n".join(result.summary_rows()))
        rates = result.non_detection_rates()
        print(f"  -> completely overlooked 'human' ground-truth segments: "
              f"Bayes {100 * rates['bayes']:.1f}%  vs  ML {100 * rates['ml']:.1f}%")

        # Fig. 3: qualitative masks for the first validation image.
        probs = network.predict_probabilities(sample.labels, index=0)
        bayes_mask = comparison.decode(probs, "bayes")
        ml_mask = comparison.decode(probs, "ml")
        write_ppm(ARTIFACT_DIR / f"fig3_{profile.name}_bayes.ppm", labels_to_rgb(bayes_mask))
        write_ppm(ARTIFACT_DIR / f"fig3_{profile.name}_ml.ppm", labels_to_rgb(ml_mask))
        print(f"  wrote Fig.-3-style masks to {ARTIFACT_DIR}/fig3_{profile.name}_*.ppm")


if __name__ == "__main__":
    main()
