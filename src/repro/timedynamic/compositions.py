"""Training-data compositions R / RA / RAP / RP / P of Section III.

The paper trains meta models on five compositions of training data:

* **R**   — real ground truth only (segments from the 142 labelled frames);
* **RA**  — real plus SMOTE-augmented synthetic metric samples;
* **RAP** — real, augmented and pseudo ground truth;
* **RP**  — real and pseudo ground truth;
* **P**   — pseudo ground truth only.

The additions are used *only during training*; validation and test always use
real ground truth.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.dataset import MetricsDataset
from repro.timedynamic.smote import smote_regression
from repro.utils.rng import RandomState, as_rng

#: Composition names in the order used by the paper's Table II and Fig. 2.
COMPOSITIONS: Tuple[str, ...] = ("R", "RA", "RAP", "RP", "P")


def _synthetic_dataset(
    template: MetricsDataset, features: np.ndarray, targets: np.ndarray
) -> MetricsDataset:
    """Wrap SMOTE output in a MetricsDataset compatible with *template*."""
    n = features.shape[0]
    return MetricsDataset(
        features=features,
        feature_names=list(template.feature_names),
        segment_ids=np.full(n, -1, dtype=np.int64),
        class_ids=np.full(n, -1, dtype=np.int64),
        image_ids=np.array(["smote"] * n, dtype=object),
        iou=np.clip(targets, 0.0, 1.0),
        extra={"synthetic": True},
    )


def assemble_composition(
    name: str,
    real_train: MetricsDataset,
    pseudo_train: Optional[MetricsDataset] = None,
    augmentation_factor: float = 1.0,
    random_state: RandomState = None,
) -> MetricsDataset:
    """Build the training dataset for one composition.

    Parameters
    ----------
    name:
        One of ``"R"``, ``"RA"``, ``"RAP"``, ``"RP"``, ``"P"``.
    real_train:
        Metrics of segments with real ground-truth IoU targets.
    pseudo_train:
        Metrics of segments with pseudo ground-truth IoU targets (required for
        the P-containing compositions).
    augmentation_factor:
        Number of SMOTE samples generated per real sample (for RA / RAP),
        interpolated between each sample's 5 nearest neighbours (SmoteR).
    random_state:
        Seed controlling the SMOTE generation.
    """
    if name not in COMPOSITIONS:
        raise ValueError(f"unknown composition {name!r}; expected one of {COMPOSITIONS}")
    if augmentation_factor < 0:
        raise ValueError("augmentation_factor must be non-negative")
    needs_pseudo = "P" in name
    if needs_pseudo and pseudo_train is None:
        raise ValueError(f"composition {name!r} requires pseudo_train data")
    rng = as_rng(random_state)

    parts = []
    if "R" in name:
        parts.append(real_train)
    if "A" in name:
        n_synthetic = int(round(augmentation_factor * len(real_train)))
        if n_synthetic > 0:
            synthetic_features, synthetic_targets = smote_regression(
                real_train.features,
                real_train.target_iou(),
                n_synthetic=n_synthetic,
                k_neighbors=5,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            parts.append(_synthetic_dataset(real_train, synthetic_features, synthetic_targets))
    if needs_pseudo:
        parts.append(pseudo_train)
    if not parts:
        raise ValueError(f"composition {name!r} produced no training data")
    combined = MetricsDataset.concatenate(parts)
    combined.extra["composition"] = name
    return combined
