"""Pixel-wise dispersion heatmaps.

Section II of the paper constructs segment metrics "based on dispersion
measures of f_z(y|x,w) (entropy, probability margin)".  This module computes
those dispersion measures per pixel; :mod:`repro.core.metrics` aggregates them
over segments.

All heatmaps are normalised to [0, 1]:

* ``entropy_heatmap`` — Shannon entropy of the pixel's class distribution,
  divided by log(C);
* ``probability_margin_heatmap`` — 1 minus the difference between the largest
  and second-largest class probability (1 = maximal ambiguity);
* ``variation_ratio_heatmap`` — 1 minus the largest class probability.

``fused_dispersion_heatmaps`` is the one walk over the softmax field behind
the metric extraction of :mod:`repro.core.metrics`: tile by tile of rows it
validates the field, takes its argmax and computes all three heatmaps plus
the max-probability map, bitwise-identical to ``check_probability_field``,
``np.argmax`` and the individual functions above.  It allocates only the
outputs and tile-sized work space, never an (H, W, C) temporary.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

import numpy as np

from repro.utils.validation import (
    PROBABILITY_TOL,
    check_probability_field,
    check_probability_shape,
    check_probability_verdict,
)


def entropy_heatmap(probs: np.ndarray) -> np.ndarray:
    """Normalised Shannon entropy per pixel (values in [0, 1])."""
    probs = check_probability_field(probs)
    n_classes = probs.shape[2]
    clipped = np.clip(probs, 1e-12, 1.0)
    entropy = -np.sum(clipped * np.log(clipped), axis=2)
    return entropy / np.log(n_classes)


def variation_ratio_heatmap(probs: np.ndarray) -> np.ndarray:
    """1 - max class probability per pixel (values in [0, 1])."""
    probs = check_probability_field(probs)
    return 1.0 - probs.max(axis=2)


def probability_margin_heatmap(probs: np.ndarray) -> np.ndarray:
    """1 - (largest minus second-largest class probability) per pixel."""
    probs = check_probability_field(probs)
    # Partition so the two largest probabilities sit in the last two slots.
    top_two = np.partition(probs, probs.shape[2] - 2, axis=2)[:, :, -2:]
    margin = top_two[:, :, 1] - top_two[:, :, 0]
    return 1.0 - margin


#: Pixel budget of one tile of :func:`fused_dispersion_heatmaps`.  A tile is
#: ``max(1, TILE_PIXELS // W)`` rows; at C = 19 its float64 slice of the field
#: and its two clipped/integrand buffers are ~1.2 MB each, so every pass over
#: a tile reads it from cache rather than from memory.
TILE_PIXELS = 8192

#: Column order of :attr:`SoftmaxSweep.values`.
SWEEP_COLUMNS = ("E", "M", "V", "pmax")


class SoftmaxSweep(NamedTuple):
    """Everything one walk over a softmax field yields.

    ``field`` is the validated ``float64`` field (the input itself when it
    already was one), ``labels`` its ``(H, W)`` int64 argmax (first class on
    ties, like ``np.argmax``), and ``values`` an ``(H·W, 4)`` matrix holding
    the E, M, V and p_max heatmaps as columns (:data:`SWEEP_COLUMNS`), ready
    to be summed per segment by one sparse product.
    """

    field: np.ndarray
    labels: np.ndarray
    values: np.ndarray

    def heatmap(self, key: str) -> np.ndarray:
        """One column of :attr:`values` as a contiguous (H, W) map."""
        height, width = self.labels.shape
        column = self.values[:, SWEEP_COLUMNS.index(key)]
        return np.ascontiguousarray(column).reshape(height, width)


def fused_dispersion_heatmaps(probs: np.ndarray) -> SoftmaxSweep:
    """Validate a softmax field, take its argmax and its E/M/V/p_max maps in one sweep.

    The field is walked a tile of rows at a time (:data:`TILE_PIXELS`), so
    every pass over a tile reads it from cache.  Per tile:

    * the validation reductions of :func:`check_probability_field`
      (``tile < -tol`` and ``np.sum(tile, axis=2)``) accumulate into one
      verdict, raised after the last tile with the same message;
    * a running maximum, second maximum and first-index argmax over the C
      class planes give p_max, M = 1 - (p_max - p_2nd) and V = 1 - p_max;
    * the entropy integrand ``clip(p) * log(clip(p))`` is summed over the
      tile's contiguous class axis.

    Maxima are exact and every sum adds the same values in the same order as
    the whole-field functions, so the outputs are bitwise equal to
    ``np.argmax(probs, axis=2)`` and :func:`_reference_dispersion_heatmaps`
    (the entropy of a non-contiguous field as of its C-contiguous copy:
    the tile is clipped into contiguous work space before the class sum).
    Only tile-sized work buffers are allocated besides the outputs.
    """
    field = check_probability_shape(probs)
    height, width, n_classes = field.shape
    tile_rows = max(1, TILE_PIXELS // width)
    labels = np.empty((height, width), dtype=np.int64)
    values = np.empty((height * width, len(SWEEP_COLUMNS)))
    # Tile work space.  The running argmax lives in the smallest unsigned
    # type that holds a class index, so its per-plane updates stay cheap.
    clipped = np.empty((tile_rows, width, n_classes))
    integrand = np.empty_like(clipped)
    planes = np.empty((4, tile_rows, width))
    rises = np.empty((tile_rows, width), dtype=bool)
    index_type = np.min_scalar_type(n_classes - 1)
    indices = np.empty((2, tile_rows, width), dtype=index_type)
    log_classes = np.log(n_classes)
    negative = False
    deviation = 0.0
    for start in range(0, height, tile_rows):
        stop = min(start + tile_rows, height)
        rows = stop - start
        tile = field[start:stop]
        negative = negative or bool(np.any(tile < -PROBABILITY_TOL))
        deviation = np.maximum(deviation, np.abs(np.sum(tile, axis=2) - 1.0).max())

        # Running top-2 and argmax over the class planes, each plane first
        # copied out of the interleaved tile so the updates run contiguous.
        # A strict ``>`` marks where class c takes the lead; the last such c
        # is the first index of the maximum, as np.argmax picks on ties.
        current, first, second, work = planes[:, :rows]
        best, lead = indices[:, :rows]
        rise = rises[:rows]
        np.copyto(first, tile[:, :, 0])
        second.fill(-np.inf)
        best.fill(0)
        for class_index in range(1, n_classes):
            np.copyto(current, tile[:, :, class_index])
            np.greater(current, first, out=rise)
            np.multiply(rise.view(np.uint8), index_type.type(class_index), out=lead)
            np.maximum(best, lead, out=best)
            np.minimum(first, current, out=work)
            np.maximum(second, work, out=second)
            np.maximum(first, current, out=first)
        labels[start:stop] = best

        tile_clipped = np.clip(tile, 1e-12, 1.0, out=clipped[:rows])
        tile_integrand = np.log(tile_clipped, out=integrand[:rows])
        np.multiply(tile_clipped, tile_integrand, out=tile_integrand)
        entropy = np.sum(tile_integrand, axis=2, out=work)

        block = values[start * width:stop * width].reshape(rows, width, len(SWEEP_COLUMNS))
        np.divide(np.negative(entropy, out=entropy), log_classes, out=block[:, :, 0])
        np.subtract(1.0, np.subtract(first, second, out=work), out=block[:, :, 1])
        np.subtract(1.0, first, out=block[:, :, 2])
        block[:, :, 3] = first
    check_probability_verdict(negative, float(deviation))
    return SoftmaxSweep(field, labels, values)


def dispersion_heatmaps(probs: np.ndarray) -> Dict[str, np.ndarray]:
    """All dispersion heatmaps keyed by their short names (E, M, V)."""
    sweep = fused_dispersion_heatmaps(probs)
    return {key: sweep.heatmap(key) for key in ("E", "M", "V")}


def _reference_dispersion_heatmaps(probs: np.ndarray) -> Dict[str, np.ndarray]:
    """Seed implementation of :func:`dispersion_heatmaps` (one pass per map).

    Retained verbatim as the baseline of the fused-extraction parity tests
    and ``benchmarks/bench_extraction_fused.py``; do not use on hot paths.
    """
    probs = check_probability_field(probs)
    return {
        "E": entropy_heatmap(probs),
        "M": probability_margin_heatmap(probs),
        "V": variation_ratio_heatmap(probs),
    }
