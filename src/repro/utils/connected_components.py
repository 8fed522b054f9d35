"""Connected component labelling for segmentation masks.

The paper treats every connected component of a predicted (or ground-truth)
class mask as one *segment instance*; meta classification and the FP/FN
definitions all operate on these components.  :func:`label_components`
labels every class at once in one run-length pass:

* one comparison of neighbouring columns splits each row into maximal
  horizontal runs of equal value;
* each run is joined to the equal-valued runs of the row above whose columns
  it touches (they overlap, widened by one column for 8-connectivity).  Runs
  partition each row, so two ``searchsorted`` calls on the run bounds give
  every candidate pair;
* a batched pointer-doubling union-find merges the joined runs.  Hooks only
  ever lower a root, so each root is its component's first run in scan order
  and the component ids need no renumbering sort.

The component image is one ``np.repeat`` of the run ids; the first pixels,
boxes, sizes and coordinate sums of the components are reduced per run, which
is all :func:`repro.core.segments.extract_segments` needs besides the image.
:func:`label_components` is the one labelling entry point: the segment
extraction, the simulated network and the tests read its ``components``
image and count the components as ``first_index.size``.
The test suite checks the image and the table against ``scipy.ndimage.label``
run on the full-image mask of every class.

Two pixels belong to the same component iff they carry the same value in the
label map and are connected through a path of equally-valued neighbours.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from repro.utils.validation import check_label_map


class Labelling(NamedTuple):
    """One labelling pass over a label map (see :func:`label_components`)."""

    labels: np.ndarray  # the validated int64 label map
    components: np.ndarray  # (H, W) int64; background 0, components 1..n in scan order
    first_index: np.ndarray  # (n,) flat index of each component's first pixel, ascending
    boxes: np.ndarray  # (n, 4) int64 (top, left, bottom, right), bottom/right exclusive
    sizes: np.ndarray  # (n,) int64 pixel count of each component
    coordinate_sums: np.ndarray  # (n, 2) float64 sums of pixel rows and columns (exact)


def _resolve_roots(parent: np.ndarray) -> np.ndarray:
    """Fully compress a parent-pointer forest via pointer doubling."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _merge(n: int, here: np.ndarray, there: np.ndarray) -> np.ndarray:
    """Root of each of *n* nodes once the edges ``(here[i], there[i])`` are merged.

    Batched union-find: all edges are merged at once by alternating full path
    compression (pointer doubling) with a vectorised "hook the larger root
    under the smaller" step, instead of one Python-level union call per edge.
    Parent pointers only ever decrease, so the loop terminates and every root
    is the smallest node of its set; an edge whose ends share a root stays
    resolved and is dropped.
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        parent = _resolve_roots(parent)
        root_a = parent[here]
        root_b = parent[there]
        unresolved = root_a != root_b
        if not np.any(unresolved):
            return parent
        here, there = here[unresolved], there[unresolved]
        root_a, root_b = root_a[unresolved], root_b[unresolved]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))


def _scan_order_ids(parent: np.ndarray, foreground: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Component id of every node (1..n, 0 off the foreground) and the root
    node of each id.  Roots are the smallest node of their set, so numbering
    them in node order numbers the components in scan order."""
    roots = np.flatnonzero((parent == np.arange(parent.size)) & foreground)
    rank = np.zeros(parent.size, dtype=np.int64)
    rank[roots] = np.arange(1, roots.size + 1)
    return np.where(foreground, rank[parent], 0), roots


def _runs(image: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat start and length of every maximal horizontal run of equal
    values, in scan order; every row starts a run, so the runs tile the image."""
    height, width = image.shape
    boundary = np.ones((height, width), dtype=bool)
    np.not_equal(image[:, 1:], image[:, :-1], out=boundary[:, 1:])
    starts = np.flatnonzero(boundary)
    return starts, np.diff(starts, append=height * width)


def _run_joins(
    starts: np.ndarray, lengths: np.ndarray, values: np.ndarray, width: int,
    connectivity: int, background: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair (run above, run below) of vertically touching runs of the
    same non-background value.

    A run's window on the row above is its own columns, widened by one on
    each side for 8-connectivity and clipped to the row.  The runs of a row
    are disjoint and sorted, so the runs meeting the window are the
    contiguous range from the first one ending past its left edge to the
    first one starting at or past its right edge.
    """
    reach = 1 if connectivity == 8 else 0
    row_above = (starts // width - 1) * width
    left = starts - row_above - width
    low = np.searchsorted(starts + lengths, row_above + np.maximum(left - reach, 0), side="right")
    counts = np.searchsorted(
        starts, row_above + np.minimum(left + lengths + reach, width), side="left"
    ) - low
    # The value filter runs before the index of the run below is built, so
    # at most three candidate-sized arrays are alive at once.
    above = np.repeat(low - np.cumsum(counts) + counts, counts)
    above += np.arange(above.size)
    value = np.repeat(values, counts)
    joined = value == values[above]
    joined &= value != background
    below = np.repeat(np.arange(starts.size), counts)[joined]
    return above[joined], below


def _run_table(
    starts: np.ndarray, lengths: np.ndarray, run_ids: np.ndarray, first_index: np.ndarray,
    width: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boxes, sizes and coordinate sums of components given as runs.

    All are integer reductions per run (a run's column sum is an arithmetic
    series), so the float64 coordinate sums are exact and equal a per-pixel
    sum bitwise.
    """
    n = first_index.size
    rows, left = np.divmod(starts, width)
    # Row 0 of every reduction collects the background runs and is dropped.
    boxes = np.zeros((n + 1, 4), dtype=np.int64)
    boxes[1:, 0] = first_index // width
    boxes[:, 1] = width
    np.minimum.at(boxes[:, 1], run_ids, left)
    np.maximum.at(boxes[:, 2], run_ids, rows + 1)
    np.maximum.at(boxes[:, 3], run_ids, left + lengths)
    sizes = np.bincount(run_ids, weights=lengths, minlength=n + 1)[1:].astype(np.int64)
    coordinate_sums = np.empty((n, 2), dtype=np.float64)
    coordinate_sums[:, 0] = np.bincount(run_ids, weights=rows * lengths, minlength=n + 1)[1:]
    coordinate_sums[:, 1] = np.bincount(
        run_ids, weights=lengths * (2 * left + lengths - 1) // 2, minlength=n + 1
    )[1:]
    return boxes[1:], sizes, coordinate_sums


def label_components(
    labels: np.ndarray,
    connectivity: int = 8,
    background: int = -1,
) -> Labelling:
    """Label connected components of equal-valued pixels and return their
    table: first pixels, boxes, sizes and coordinate sums.

    Parameters
    ----------
    labels:
        2-D integer array of class ids per pixel.
    connectivity:
        4 or 8.
    background:
        Value treated as background / ignore (component id 0).

    One run-length pass (see the module docstring) yields the image and the
    table together.  In ``components`` background pixels are 0 and the
    components are numbered 1..n in scan order of their first pixel, so
    ``first_index.size`` is the component count.
    """
    labels = check_label_map(labels)
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    height, width = labels.shape
    starts, lengths = _runs(labels)
    values = labels[starts // width, starts % width]
    joins = _run_joins(starts, lengths, values, width, connectivity, background)
    parent = _merge(starts.size, *joins)
    run_ids, roots = _scan_order_ids(parent, values != background)
    first_index = starts[roots]
    components = np.repeat(run_ids, lengths).reshape(height, width)
    return Labelling(
        labels, components, first_index, *_run_table(starts, lengths, run_ids, first_index, width)
    )


def pair_contingency(
    a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse contingency table of two aligned integer arrays.

    Counts, for every pair of values ``(a[i], b[i])``, how often it occurs.
    This is the single-pass primitive behind the vectorised segment matching:
    with ``a`` the predicted component image and ``b`` the ground-truth
    component image, the table holds every pairwise intersection size at once.

    Returns
    -------
    a_values, b_values, counts:
        Aligned 1-D arrays; ``counts[i]`` is the number of positions where
        ``a == a_values[i]`` and ``b == b_values[i]``.  Rows are sorted by
        ``(a_value, b_value)``.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"arrays must be aligned, got sizes {a.size} and {b.size}")
    empty = np.zeros(0, dtype=np.int64)
    if a.size == 0:
        return empty, empty.copy(), empty.copy()
    a_min = int(a.min())
    b_min = int(b.min())
    span = int(b.max()) - b_min + 1
    n_codes = (int(a.max()) - a_min + 1) * span
    # codes = (a - a_min) * span + (b - b_min), built in place in one array.
    codes = np.subtract(a, a_min, dtype=np.int64)
    codes *= span
    codes += b.astype(np.int64, copy=False)
    codes -= b_min
    # Dense bincount is one O(size) pass but allocates the full table; fall
    # back to sort-based np.unique when the value ranges make it too large.
    if n_codes <= max(1 << 20, 4 * a.size):
        dense = np.bincount(codes, minlength=n_codes)
        nonzero = np.nonzero(dense)[0]
        counts = dense[nonzero].astype(np.int64)
        code_values = nonzero
    else:
        code_values, counts = np.unique(codes, return_counts=True)
        counts = counts.astype(np.int64)
    a_values = code_values // span + a_min
    b_values = code_values % span + b_min
    return a_values.astype(np.int64), b_values.astype(np.int64), counts
