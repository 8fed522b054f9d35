"""Pixel-wise dispersion heatmaps.

Section II of the paper constructs segment metrics "based on dispersion
measures of f_z(y|x,w) (entropy, probability margin)".  This module computes
those dispersion measures per pixel; :mod:`repro.core.metrics` aggregates them
over segments.

All heatmaps are normalised to [0, 1]:

* E — Shannon entropy of the pixel's class distribution, divided by log(C);
* M — 1 minus the difference between the largest and second-largest class
  probability (1 = maximal ambiguity);
* V — 1 minus the largest class probability.

``fused_dispersion_heatmaps`` is the one walk over the softmax field behind
the metric extraction of :mod:`repro.core.metrics`: tile by tile of rows it
validates the field, takes its argmax and computes all three heatmaps plus
the max-probability map, bitwise-identical to ``check_probability_field``,
``np.argmax`` and the one-pass-per-map seed implementation kept as the
oracle ``tests/reference/heatmaps.py``.
Each tile is copied once into a class-major ``(C, n)`` buffer, so every
class-axis step runs over contiguous class planes; the class sums (row sums
and entropy) go through ``_class_sum``, which adds the planes in the order
``np.sum`` adds the classes of a C-contiguous field (numpy's eight-lane
``pairwise_sum``), whatever the layout of the input.  The sweep allocates
only the outputs and tile-sized work space, never an (H, W, C) temporary;
its four maps are the columns of one column-major ``(H·W, 4)`` matrix.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

import numpy as np

from repro.utils.arrays import _LANES, TILE_PIXELS, _class_sum
from repro.utils.validation import (
    PROBABILITY_TOL,
    check_probability_shape,
    check_probability_verdict,
)


#: Column order of :attr:`SoftmaxSweep.values`.
SWEEP_COLUMNS = ("E", "M", "V", "pmax")


class SoftmaxSweep(NamedTuple):
    """Everything one walk over a softmax field yields.

    ``field`` is the validated ``float64`` field (the input itself when it
    already was one), ``labels`` its ``(H, W)`` int64 argmax (first class on
    ties, like ``np.argmax``), and ``values`` an ``(H·W, 4)`` column-major
    matrix holding the E, M, V and p_max heatmaps as columns
    (:data:`SWEEP_COLUMNS`): each map is one contiguous run of ``H·W``
    values, which the sweep writes a tile at a time and the extractor sums
    per segment without a copy.
    """

    field: np.ndarray
    labels: np.ndarray
    values: np.ndarray

    def heatmap(self, key: str) -> np.ndarray:
        """One column of :attr:`values` as an (H, W) view."""
        return self.values[:, SWEEP_COLUMNS.index(key)].reshape(self.labels.shape)


def fused_dispersion_heatmaps(probs: np.ndarray) -> SoftmaxSweep:
    """Validate a softmax field, take its argmax and its E/M/V/p_max maps in one sweep.

    The field is walked a tile of rows at a time (:data:`TILE_PIXELS`).  Each
    tile is copied once, from whatever layout the field has, into a
    class-major ``(C, n)`` work buffer: that transposing copy is the tile's
    only read of the field, and every class-axis step after it runs over
    contiguous class planes.  Per tile:

    * ``np.fmin.reduce`` of the buffer (NaN-ignoring, like ``tile < -tol``)
      and the row sums of :func:`check_probability_field` accumulate into
      one verdict, raised after the last tile with the same message;
    * a running maximum, second maximum and first-index argmax over the C
      class planes give p_max, M = 1 - (p_max - p_2nd) and V = 1 - p_max;
    * the buffer is clipped, logged and multiplied in place into the
      entropy integrand ``clip(p) * log(clip(p))`` and summed over its class
      planes.

    Both class sums go through :func:`_class_sum`, which adds the planes in
    the order ``np.sum`` adds the classes of a C-contiguous field, for every
    layout of the input.  Maxima are exact, so the outputs are bitwise equal
    to ``np.argmax(probs, axis=2)`` and the one-pass-per-map seed oracle
    (``tests/reference/heatmaps.py``) on the field's C-contiguous copy, and
    the verdict is :func:`~repro.utils.validation.check_probability_field`'s
    for every layout.  Only the outputs and
    tile-sized work buffers are allocated, never an (H, W, C) temporary.
    """
    field = check_probability_shape(probs)
    height, width, n_classes = field.shape
    tile_rows = max(1, TILE_PIXELS // width)
    tile_pixels = tile_rows * width
    labels = np.empty((height, width), dtype=np.int64)
    flat_labels = labels.reshape(-1)
    values = np.empty((height * width, len(SWEEP_COLUMNS)), order="F")
    # Tile work space.  The running argmax lives in the smallest unsigned
    # type that holds a class index, so its per-plane updates stay cheap.
    buffer = np.empty(n_classes * tile_pixels)
    lanes_buffer = np.empty((_LANES, tile_pixels))
    planes = np.empty((3, tile_pixels))
    rises = np.empty(tile_pixels, dtype=bool)
    index_type = np.min_scalar_type(n_classes - 1)
    indices = np.empty((2, tile_pixels), dtype=index_type)
    log_classes = np.log(n_classes)
    negative = False
    deviation = 0.0
    for start in range(0, height, tile_rows):
        stop = min(start + tile_rows, height)
        rows = stop - start
        pixels = rows * width
        tile = buffer[:n_classes * pixels].reshape(n_classes, pixels)
        np.copyto(tile.reshape(n_classes, rows, width), field[start:stop].transpose(2, 0, 1))
        first, second, work = planes[:, :pixels]
        lanes = lanes_buffer[:, :pixels]
        negative = negative or bool(np.fmin.reduce(tile, axis=None) < -PROBABILITY_TOL)
        row_sums = _class_sum(tile, work, lanes)
        np.subtract(row_sums, 1.0, out=row_sums)
        deviation = np.maximum(deviation, np.abs(row_sums, out=row_sums).max())

        # Running top-2 and argmax over the class planes.  A strict ``>``
        # marks where class c takes the lead; the last such c is the first
        # index of the maximum, as np.argmax picks on ties.
        best, lead = indices[:, :pixels]
        rise = rises[:pixels]
        np.copyto(first, tile[0])
        second.fill(-np.inf)
        best.fill(0)
        for class_index in range(1, n_classes):
            current = tile[class_index]
            np.greater(current, first, out=rise)
            np.multiply(rise.view(np.uint8), index_type.type(class_index), out=lead)
            np.maximum(best, lead, out=best)
            np.minimum(first, current, out=work)
            np.maximum(second, work, out=second)
            np.maximum(first, current, out=first)
        flat_labels[start * width:stop * width] = best

        # The entropy integrand, in place; the lanes hold the logarithms of
        # eight planes at a time, then the class sum overwrites the buffer.
        np.clip(tile, 1e-12, 1.0, out=tile)
        for low in range(0, n_classes, _LANES):
            chunk = tile[low:low + _LANES]
            logs = np.log(chunk, out=lanes[:len(chunk)])
            np.multiply(chunk, logs, out=chunk)
        entropy = _class_sum(tile, work)

        # The maps are column-major: each is written as one contiguous run.
        entropy_map, margin_map, variation_map, pmax_map = values[start * width:stop * width].T
        np.divide(np.negative(entropy, out=entropy), log_classes, out=entropy_map)
        np.subtract(1.0, np.subtract(first, second, out=work), out=margin_map)
        np.subtract(1.0, first, out=variation_map)
        np.copyto(pmax_map, first)
    check_probability_verdict(negative, float(deviation))
    return SoftmaxSweep(field, labels, values)


def dispersion_heatmaps(probs: np.ndarray) -> Dict[str, np.ndarray]:
    """All dispersion heatmaps keyed by their short names (E, M, V)."""
    sweep = fused_dispersion_heatmaps(probs)
    return {key: sweep.heatmap(key) for key in ("E", "M", "V")}
