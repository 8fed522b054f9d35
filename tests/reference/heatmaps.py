"""Seed dispersion heatmaps, one pass over the softmax field per map.

The oracle of :func:`repro.core.heatmaps.fused_dispersion_heatmaps`: the
tiled sweep's E, M and V maps are bitwise equal to these on the field's
C-contiguous copy (``tests/test_softmax_sweep_parity_fuzz.py``,
``tests/test_core_metrics_dataset.py``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.utils.validation import check_probability_field


def _reference_dispersion_heatmaps(probs: np.ndarray) -> Dict[str, np.ndarray]:
    """Seed implementation of :func:`dispersion_heatmaps` (one pass per map).

    Retained as the baseline of the fused-extraction parity tests and
    ``benchmarks/bench_extraction_fused.py``; do not use on hot paths.
    """
    probs = check_probability_field(probs)
    clipped = np.clip(probs, 1e-12, 1.0)
    entropy = -np.sum(clipped * np.log(clipped), axis=2)
    # Partition so the two largest probabilities sit in the last two slots.
    top_two = np.partition(probs, probs.shape[2] - 2, axis=2)[:, :, -2:]
    margin = top_two[:, :, 1] - top_two[:, :, 0]
    return {
        "E": entropy / np.log(probs.shape[2]),
        "M": 1.0 - margin,
        "V": 1.0 - probs.max(axis=2),
    }
