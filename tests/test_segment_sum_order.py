"""The order in which extraction adds each segment's pixels, against a plain loop.

Every segment mean of the feature matrix — E, M, V and p_max over the whole
segment, its interior and its boundary, and every class probability — must
be the left-to-right float sum of that segment's pixel values in ascending
pixel order, starting from 0.0, divided by the pixel count.  The oracle
here is ``functools.reduce(operator.add, values, 0.0)`` over the pixels a
loop collects, with the interior recomputed from its definition (all four
neighbours in the same segment, image-border pixels on the boundary); it
shares no code with the extractor's sums or with the seed implementation.
(``sum()`` is not used: from Python 3.12 it compensates float sums.)

The per-pixel E/M/V/p_max values are the sweep's maps, which
``tests/test_softmax_sweep_parity_fuzz.py`` pins on their own.  Each
oracle sum is also checked against ``math.fsum`` within the recursive
summation bound ``n · 2**-53 · Σ|x|``.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np
import pytest

from repro.core.heatmaps import fused_dispersion_heatmaps
from repro.core.metrics import SegmentMetricsExtractor
from repro.segmentation.labels import LabelSpace, LabelSpec

#: Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0 ** -53


def _space(n_classes: int) -> LabelSpace:
    return LabelSpace(tuple(
        LabelSpec(index, f"class{index}", "object", (0, 0, 0), index % 2 == 1, 0.01)
        for index in range(n_classes)
    ))


def _field(seed: int):
    """A seeded small softmax field with chunky segments; every third seed
    ties the maximum of a quarter of the pixels with a second class."""
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(3, 20))
    height, width = ((1, 17), (13, 1), (2, 11))[seed % 3] if seed % 4 == 3 else (
        int(rng.integers(3, 25)), int(rng.integers(3, 25))
    )
    cell = int(rng.integers(1, 5))
    grid = rng.integers(0, n_classes, size=(height // cell + 1, width // cell + 1))
    bias = np.kron(grid, np.ones((cell, cell), dtype=np.int64))[:height, :width]
    logits = rng.normal(0.0, 1.0, size=(height, width, n_classes))
    rows, cols = np.indices((height, width))
    logits[rows, cols, bias] += rng.uniform(0.5, 4.0)
    probs = np.exp(logits)
    if seed % 3 == 0:
        tied = rng.random((height, width)) < 0.25
        winners = probs.argmax(axis=2)
        partners = (winners + rng.integers(1, n_classes, size=winners.shape)) % n_classes
        probs[rows[tied], cols[tied], partners[tied]] = probs[rows[tied], cols[tied], winners[tied]]
    probs /= probs.sum(axis=2, keepdims=True)
    return probs


def _interior(components: np.ndarray) -> np.ndarray:
    """Interior pixels by definition, one pixel at a time."""
    height, width = components.shape
    interior = np.zeros((height, width), dtype=bool)
    for row in range(1, height - 1):
        for col in range(1, width - 1):
            own = components[row, col]
            interior[row, col] = all(
                components[row + d_row, col + d_col] == own
                for d_row, d_col in ((-1, 0), (1, 0), (0, -1), (0, 1))
            )
    return interior


def _ordered_mean(values):
    """Left-to-right float sum from 0.0 over *values*, divided by their count
    (0.0 for no values), after checking the sum against ``math.fsum``."""
    if not values:
        return 0.0
    total = functools.reduce(operator.add, values, 0.0)
    bound = len(values) * UNIT_ROUNDOFF * math.fsum(abs(value) for value in values)
    assert abs(total - math.fsum(values)) <= bound
    return total / len(values)


@pytest.mark.parametrize("seed", range(12))
def test_segment_means_add_pixels_in_ascending_order(seed):
    probs = _field(seed)
    n_classes = probs.shape[2]
    extractor = SegmentMetricsExtractor(label_space=_space(n_classes))
    result = extractor.extract_full(probs)
    features = result.dataset.features
    names = extractor.feature_names()
    components = result.prediction.components
    flat_components = components.ravel().tolist()
    interior = _interior(components).ravel().tolist()
    sweep = fused_dispersion_heatmaps(probs)
    maps = {key: sweep.heatmap(key).ravel().tolist() for key in ("E", "M", "V", "pmax")}
    classes = probs.reshape(-1, n_classes).T.tolist()

    pixels = {segment: [] for segment in range(1, result.prediction.n_segments + 1)}
    for pixel, segment in enumerate(flat_components):
        pixels[segment].append(pixel)
    for segment, members in pixels.items():
        inner = [pixel for pixel in members if interior[pixel]]
        outer = [pixel for pixel in members if not interior[pixel]]
        expected = {"S": float(len(members)), "S_in": float(len(inner)), "S_bd": float(len(outer))}
        for key in ("E", "M", "V"):
            values = maps[key]
            expected[f"{key}_mean"] = _ordered_mean([values[pixel] for pixel in members])
            expected[f"{key}_in_mean"] = _ordered_mean([values[pixel] for pixel in inner])
            expected[f"{key}_bd_mean"] = _ordered_mean([values[pixel] for pixel in outer])
        expected["pmax_mean"] = _ordered_mean([maps["pmax"][pixel] for pixel in members])
        for class_index, values in enumerate(classes):
            name = f"cprob_class{class_index}"
            expected[name] = _ordered_mean([values[pixel] for pixel in members])
        row = features[segment - 1]
        for name, value in expected.items():
            got = row[names.index(name)]
            assert got == value, f"seed={seed} segment={segment} {name}: {got!r} != {value!r}"
