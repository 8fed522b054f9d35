"""Connected component labelling for segmentation masks.

The paper treats every connected component of a predicted (or ground-truth)
class mask as one *segment instance*; meta classification and the FP/FN
definitions all operate on these components.  Two engines label them:

* ``engine="scipy"`` (the default): one ``find_objects`` pass over the label
  map gives every class's bounding box, and ``ndimage.label`` runs once per
  class inside that box only; the component boxes come out of the same pass.
* ``engine="unionfind"``: an independent numpy union-find labelling, with
  boxes from ``find_objects`` on the result; the test suite cross-checks the
  two engines.

Both normalise component ids to scan order of each component's first pixel
(found with one scatter-min), so their outputs are bit-identical.
:func:`label_components` also returns the first pixels and boxes, which is
all :func:`repro.core.segments.extract_segments` needs besides the image.

Two pixels belong to the same component iff they carry the same value in the
label map and are connected through a path of equally-valued neighbours.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np
from scipy import ndimage

from repro.utils.validation import check_label_map


class Labelling(NamedTuple):
    """One labelling pass over a label map (see :func:`label_components`)."""

    labels: np.ndarray  # the validated int64 label map
    components: np.ndarray  # (H, W) int64; background 0, components 1..n in scan order
    first_index: np.ndarray  # (n,) flat index of each component's first pixel, ascending
    boxes: np.ndarray  # (n, 4) int64 (top, left, bottom, right), bottom/right exclusive


def _resolve_roots(parent: np.ndarray) -> np.ndarray:
    """Fully compress a parent-pointer forest via pointer doubling."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _normalise_ids(raw: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Renumber raw component ids to 1..n in scan order of their first pixel.

    Returns the renumbered image, the raw id behind each new id (new id
    ``i + 1`` was ``raw_ids[i]``) and each component's first flat pixel index.
    """
    flat = raw.ravel()
    n_pixels = flat.size
    first = np.full(int(flat.max()) + 1, n_pixels, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(n_pixels))
    raw_ids = np.flatnonzero(first[1:] < n_pixels) + 1
    raw_ids = raw_ids[np.argsort(first[raw_ids])]
    mapping = np.zeros(first.size, dtype=np.int64)
    mapping[raw_ids] = np.arange(1, raw_ids.size + 1)
    return mapping[raw], raw_ids, first[raw_ids]


def _boxes(slices, row0: int = 0, col0: int = 0) -> List[Tuple[int, int, int, int]]:
    """``find_objects`` slices as (top, left, bottom, right), offset by (row0, col0)."""
    return [
        (row0 + rows.start, col0 + cols.start, row0 + rows.stop, col0 + cols.stop)
        for rows, cols in slices
    ]


def _label_unionfind(labels: np.ndarray, connectivity: int, background: int) -> np.ndarray:
    h, w = labels.shape
    n = h * w
    flat = labels.ravel()

    def _edges_shift(dr: int, dc: int):
        """Edge arrays between each pixel and its (dr, dc)-shifted neighbour."""
        rows = np.arange(max(0, -dr), h - max(0, dr))
        cols = np.arange(max(0, -dc), w - max(0, dc))
        if rows.size == 0 or cols.size == 0:
            return None
        rr, cc = np.meshgrid(rows, cols, indexing="ij")
        here = (rr * w + cc).ravel()
        there = ((rr + dr) * w + (cc + dc)).ravel()
        same = (flat[here] == flat[there]) & (flat[here] != background)
        if not np.any(same):
            return None
        return here[same], there[same]

    shifts = [(1, 0), (0, 1)]
    if connectivity == 8:
        shifts += [(1, 1), (1, -1)]
    edge_pairs = [edges for edges in (_edges_shift(dr, dc) for dr, dc in shifts) if edges]

    # Batched union-find: all edges of all shift directions are merged at once
    # by alternating full path compression (pointer doubling) with a vectorised
    # "hook the larger root under the smaller" step, instead of one Python-level
    # union call per edge.  Parent pointers only ever decrease, so the loop
    # terminates; at exit every edge connects two pixels with equal roots.
    parent = np.arange(n, dtype=np.int64)
    if edge_pairs:
        here = np.concatenate([edges[0] for edges in edge_pairs])
        there = np.concatenate([edges[1] for edges in edge_pairs])
        while True:
            parent = _resolve_roots(parent)
            root_a = parent[here]
            root_b = parent[there]
            low = np.minimum(root_a, root_b)
            high = np.maximum(root_a, root_b)
            unresolved = low != high
            if not np.any(unresolved):
                break
            np.minimum.at(parent, high[unresolved], low[unresolved])

    foreground = flat != background
    components = np.where(foreground, parent + 1, 0)
    return components.reshape(h, w)


def _class_boxes(labels: np.ndarray) -> List[Tuple[int, Tuple[slice, slice]]]:
    """``(value, bounding box)`` of every value present in *labels*.

    One ``find_objects`` pass over the values shifted to 1..span.  Its table
    has one entry per id in the observed span, so a map whose span exceeds
    its pixel count (sparse ids such as ``{0, 2**40}``) is first compacted to
    dense codes with ``np.unique``; memory stays O(H×W) either way.
    """
    low = int(labels.min())
    high = int(labels.max())
    if high - low < labels.size:
        values = range(low, high + 1)
        codes = labels - (low - 1)
    else:
        values, inverse = np.unique(labels, return_inverse=True)
        codes = inverse.reshape(labels.shape) + 1
    return [
        (int(value), box)
        for value, box in zip(values, ndimage.find_objects(codes))
        if box is not None
    ]


def _label_scipy(
    labels: np.ndarray, connectivity: int, background: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-class labelling inside each class's bounding box.

    Returns the raw component image (ids class-major, scan order within a
    class) and the (n, 4) box of every raw id.
    """
    structure = ndimage.generate_binary_structure(2, 2 if connectivity == 8 else 1)
    components = np.zeros(labels.shape, dtype=np.int64)
    boxes: List[Tuple[int, int, int, int]] = []
    for value, (rows, cols) in _class_boxes(labels):
        if value == background:
            continue
        mask = labels[rows, cols] == value
        labelled, count = ndimage.label(mask, structure=structure)
        components[rows, cols][mask] = labelled[mask] + len(boxes)
        if count == 1:
            # A class's only component spans exactly the class box.
            boxes.append((rows.start, cols.start, rows.stop, cols.stop))
        else:
            boxes.extend(_boxes(ndimage.find_objects(labelled), rows.start, cols.start))
    return components, np.array(boxes, dtype=np.int64).reshape(-1, 4)


def label_components(
    labels: np.ndarray,
    connectivity: int = 8,
    background: int = -1,
    engine: str = "auto",
) -> Labelling:
    """Label connected components and return their first pixels and boxes.

    Same parameters and component numbering as :func:`connected_components`.
    """
    labels = check_label_map(labels)
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    if engine not in ("auto", "scipy", "unionfind"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "unionfind":
        components, _, first_index = _normalise_ids(
            _label_unionfind(labels, connectivity, background)
        )
        boxes = np.array(_boxes(ndimage.find_objects(components)), dtype=np.int64)
        return Labelling(labels, components, first_index, boxes.reshape(-1, 4))
    raw, raw_boxes = _label_scipy(labels, connectivity, background)
    components, raw_ids, first_index = _normalise_ids(raw)
    return Labelling(labels, components, first_index, raw_boxes[raw_ids - 1])


def connected_components(
    labels: np.ndarray,
    connectivity: int = 8,
    background: int = -1,
    engine: str = "auto",
) -> Tuple[np.ndarray, int]:
    """Label connected components of equal-valued pixels.

    Parameters
    ----------
    labels:
        2-D integer array of class ids per pixel.
    connectivity:
        4 or 8.
    background:
        Value treated as background / ignore (component id 0).
    engine:
        ``"scipy"`` (``"auto"`` is an alias) or ``"unionfind"``.

    Returns
    -------
    components:
        2-D ``int64`` array; background pixels are 0, components are numbered
        1..n_components in scan order of their first pixel.
    n_components:
        Number of non-background components.
    """
    labelling = label_components(labels, connectivity, background, engine)
    return labelling.components, int(labelling.first_index.size)


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
    a_shift = a.astype(np.int64) - a_min
    b_shift = b.astype(np.int64) - b_min
    span = int(b_shift.max()) + 1
    codes = a_shift * span + b_shift
    n_codes = (int(a_shift.max()) + 1) * span
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


def component_sizes(components: np.ndarray) -> np.ndarray:
    """Pixel counts per component id (index 0 is the background count)."""
    components = np.asarray(components)
    if components.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(components.ravel().astype(np.int64))


def relabel_sequential(components: np.ndarray) -> Tuple[np.ndarray, int]:
    """Relabel component ids to a dense 1..n range preserving 0 as background."""
    components = np.asarray(components, dtype=np.int64)
    unique = np.unique(components)
    unique = unique[unique != 0]
    max_id = int(components.max()) if components.size else 0
    mapping = np.zeros(max_id + 1 if max_id >= 0 else 1, dtype=np.int64)
    mapping[unique] = np.arange(1, unique.size + 1, dtype=np.int64)
    out = np.where(components > 0, mapping[np.clip(components, 0, None)], 0)
    return out, int(unique.size)
