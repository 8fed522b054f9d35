"""Pixel-level segmentation quality measures.

The paper contrasts segment-level meta classification with the usual global
indices "like the global accuracy over frames or the averaged intersection
over union (IoU) on class mask level".  The global accuracy is implemented
here; it sanity-checks the simulated networks (the Xception-like profile must
outperform the Mobilenet-like one) and is reported next to the decision
rules' precision and recall.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_label_map, check_same_shape


def pixel_accuracy(gt: np.ndarray, pred: np.ndarray, ignore_id: int = -1) -> float:
    """Fraction of non-ignored pixels predicted correctly."""
    gt = check_label_map(gt, "gt")
    pred = check_label_map(pred, "pred")
    check_same_shape(gt, pred, "gt", "pred")
    valid = gt != ignore_id
    if not np.any(valid):
        raise ValueError("all pixels are ignored; cannot compute accuracy")
    return float(np.mean(gt[valid] == pred[valid]))
