"""Visualisation of label maps and segment-wise IoU (Fig. 1 of the paper).

The paper's Fig. 1 shows four panels: ground truth, predicted segments, the
true IoU of every predicted segment and the IoU predicted by meta regression,
with green indicating high and red indicating low IoU and white marking
regions without ground truth.  We render the same panels as RGB arrays and
provide a dependency-free PPM writer plus an ASCII renderer for quick
terminal inspection.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.core.segments import Segmentation
from repro.segmentation.labels import LabelSpace, cityscapes_label_space
from repro.utils.validation import check_label_map


def labels_to_rgb(
    labels: np.ndarray,
    label_space: Optional[LabelSpace] = None,
    ignore_color: tuple = (255, 255, 255),
) -> np.ndarray:
    """Colourise a label map with the label space's palette (uint8 RGB)."""
    labels = check_label_map(labels)
    label_space = label_space or cityscapes_label_space()
    palette = label_space.color_map()
    rgb = np.zeros((*labels.shape, 3), dtype=np.uint8)
    rgb[labels == -1] = ignore_color
    for class_id, color in palette.items():
        rgb[labels == class_id] = color
    return rgb


def iou_to_rgb(
    iou: np.ndarray,
    segmentation: Segmentation,
    gt_labels: Optional[np.ndarray] = None,
    ignore_id: int = -1,
) -> np.ndarray:
    """Render per-segment IoU values as a green (high) to red (low) image.

    ``iou`` is aligned with the segment ids (entry ``i`` is segment ``i + 1``,
    like :func:`~repro.core.segments.segment_ious` and the rows of the
    image's metrics dataset).  Regions without ground truth
    (``gt_labels == ignore_id``) are white, as in Fig. 1 of the paper.
    """
    iou = np.asarray(iou, dtype=np.float64)
    if iou.shape != (segmentation.n_segments,):
        raise ValueError(
            f"iou must hold one value per segment ({segmentation.n_segments}), "
            f"got shape {iou.shape}"
        )
    values = np.concatenate(([0.0], np.clip(iou, 0.0, 1.0)))[segmentation.components]
    rgb = np.zeros((*values.shape, 3), dtype=np.uint8)
    rgb[..., 0] = np.round(255 * (1.0 - values)).astype(np.uint8)
    rgb[..., 1] = np.round(255 * values).astype(np.uint8)
    if gt_labels is not None:
        gt_labels = check_label_map(gt_labels)
        rgb[gt_labels == ignore_id] = (255, 255, 255)
    return rgb


def write_ppm(path: Union[str, Path], rgb: np.ndarray) -> Path:
    """Write an (H, W, 3) uint8 array as a binary PPM (P6) file."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("rgb must have shape (H, W, 3)")
    if rgb.dtype != np.uint8:
        if rgb.max() <= 1.0:
            rgb = (rgb * 255).astype(np.uint8)
        else:
            rgb = np.clip(rgb, 0, 255).astype(np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(rgb.tobytes())
    return path


_ASCII_RAMP = " .:-=+*#%@"


def render_ascii(values: np.ndarray, width: int = 80) -> str:
    """Render a 2-D float array (e.g. a heatmap) as ASCII art.

    Values are min-max normalised and mapped onto a 10-step character ramp;
    the output is resized to at most *width* characters per row.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be 2-D")
    if width < 2:
        raise ValueError("width must be >= 2")
    height = max(2, int(values.shape[0] * width / values.shape[1] / 2))
    row_idx = np.linspace(0, values.shape[0] - 1, height).astype(int)
    col_idx = np.linspace(0, values.shape[1] - 1, width).astype(int)
    small = values[np.ix_(row_idx, col_idx)]
    low, high = float(small.min()), float(small.max())
    if high > low:
        normalised = (small - low) / (high - low)
    else:
        normalised = np.zeros_like(small)
    indices = np.clip((normalised * (len(_ASCII_RAMP) - 1)).astype(int), 0, len(_ASCII_RAMP) - 1)
    return "\n".join("".join(_ASCII_RAMP[i] for i in row) for row in indices)


def fig1_panels(
    gt_labels: np.ndarray,
    prediction: Segmentation,
    true_iou: np.ndarray,
    predicted_iou: np.ndarray,
    label_space: Optional[LabelSpace] = None,
) -> Dict[str, np.ndarray]:
    """Assemble the four panels of Fig. 1 as RGB arrays.

    ``true_iou`` and ``predicted_iou`` hold one value per predicted segment,
    aligned with its segment ids (the rows of the image's metrics dataset).
    Returns a dict with keys ``ground_truth``, ``prediction``, ``true_iou``
    and ``predicted_iou``.
    """
    label_space = label_space or cityscapes_label_space()
    return {
        "ground_truth": labels_to_rgb(gt_labels, label_space),
        "prediction": labels_to_rgb(prediction.labels, label_space),
        "true_iou": iou_to_rgb(true_iou, prediction, gt_labels=gt_labels),
        "predicted_iou": iou_to_rgb(predicted_iou, prediction, gt_labels=gt_labels),
    }
