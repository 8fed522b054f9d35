"""Parity fuzz for the run-length connected-component labeller.

``label_components`` splits every row into maximal runs of equal value,
joins the touching equal-valued runs of neighbouring rows, merges them with
a union-find over runs, and reduces each component's first pixel, box, size
and coordinate sums per run; ``extract_segments`` fills every column of its
segment table from that one pass with array expressions.
The oracle below is the straightforward decomposition those replaced, kept
here verbatim: ``ndimage.label`` on the full-image mask of every class,
``np.unique`` scan-order renumbering, a second ``np.unique`` for first
pixels and a full-image ``find_objects`` for the boxes.  Every case asserts
bitwise-equal components, counts and table columns (class ids, sizes,
boxes, coordinate sums, centroids: same dtype, same shape, same bytes), where
the oracle fills each row in a per-segment loop, and that the labelling's
own table (first pixels, boxes, sizes, coordinate sums) is the oracle's, with
the first pixels from ``np.unique(..., return_index=True)`` over the oracle's
component image.  Next to the seeded random maps, a set of
run-shaped maps (checkerboards, one-pixel stripes, a spiral, a snake, one run
per row) stresses the joins and the union rounds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from scipy import ndimage

from repro.core.segments import extract_segments
from repro.utils.connected_components import label_components

N_CASES = 240

IGNORE_ID = -1

#: Table columns of a ``Segmentation``, compared bitwise against the oracle.
TABLE_COLUMNS = ("class_ids", "sizes", "boxes", "coordinate_sums", "centroids")

#: Class-id pools: contiguous, gapped, and sparse (span larger than any
#: fuzzed frame, so no table may be indexed by id).
ID_POOLS = (
    (0, 1, 2, 3),
    (0, 5, 17, 18),
    (2, 9, 300),
    (0, 2**40),
    (7, 2**40, 2**40 + 3, 2**62),
)


def _oracle_components(labels: np.ndarray, connectivity: int, background: int):
    """Per-class full-image labelling plus ``np.unique`` renumbering."""
    structure = (
        np.ones((3, 3), dtype=bool)
        if connectivity == 8
        else np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    )
    components = np.zeros(labels.shape, dtype=np.int64)
    offset = 0
    values = np.unique(labels)
    for value in values:
        if value == background:
            continue
        mask = labels == value
        labelled, count = ndimage.label(mask, structure=structure)
        components[mask] = labelled[mask] + offset
        offset += int(count)

    flat = components.ravel()
    nonzero_mask = flat != 0
    if not np.any(nonzero_mask):
        return np.zeros_like(components), 0
    ids, first_idx = np.unique(flat[nonzero_mask], return_index=True)
    order = np.argsort(first_idx, kind="stable")
    mapping = np.zeros(int(flat.max()) + 1, dtype=np.int64)
    mapping[ids[order]] = np.arange(1, ids.size + 1)
    out = np.where(nonzero_mask, mapping[np.clip(flat, 0, None)], 0)
    return out.reshape(components.shape), int(ids.size)


def _oracle_segments(
    labels: np.ndarray, connectivity: int, ignore_id: int
) -> Tuple[np.ndarray, int, Dict[str, np.ndarray]]:
    """Segment bookkeeping from a second ``np.unique`` and ``find_objects``,
    one table row per segment in a per-segment loop."""
    labels = np.asarray(labels).astype(np.int64)
    components, n_components = _oracle_components(labels, connectivity, ignore_id)
    rows: Dict[str, List] = {name: [] for name in TABLE_COLUMNS}
    if n_components > 0:
        n_bins = n_components + 1
        flat = components.ravel()
        width = components.shape[1]
        sizes = np.bincount(flat, minlength=n_bins)
        pixel_index = np.arange(flat.size)
        row_sums = np.bincount(flat, weights=pixel_index // width, minlength=n_bins)
        col_sums = np.bincount(flat, weights=pixel_index % width, minlength=n_bins)
        component_ids, first_index = np.unique(flat, return_index=True)
        class_ids = labels.ravel()[first_index]
        boxes = ndimage.find_objects(components, max_label=n_components)
        for component_id, class_id in zip(component_ids, class_ids):
            segment_id = int(component_id)
            if segment_id == 0:
                continue
            rows_slice, cols_slice = boxes[segment_id - 1]
            size = int(sizes[segment_id])
            centroid = (
                float((row_sums[segment_id] - size * rows_slice.start) / size + rows_slice.start),
                float((col_sums[segment_id] - size * cols_slice.start) / size + cols_slice.start),
            )
            rows["class_ids"].append(int(class_id))
            rows["sizes"].append(size)
            rows["boxes"].append(
                (rows_slice.start, cols_slice.start, rows_slice.stop, cols_slice.stop)
            )
            rows["coordinate_sums"].append(
                (float(row_sums[segment_id]), float(col_sums[segment_id]))
            )
            rows["centroids"].append(centroid)
    table = {
        "class_ids": np.array(rows["class_ids"], dtype=np.int64),
        "sizes": np.array(rows["sizes"], dtype=np.int64),
        "boxes": np.array(rows["boxes"], dtype=np.int64).reshape(-1, 4),
        "coordinate_sums": np.array(rows["coordinate_sums"], dtype=np.float64).reshape(-1, 2),
        "centroids": np.array(rows["centroids"], dtype=np.float64).reshape(-1, 2),
    }
    return components, n_components, table


def _random_label_map(seed: int):
    """One seeded label map: blocky classes, noise, ignore pixels, odd shapes."""
    rng = np.random.default_rng(seed)
    pool = np.array(ID_POOLS[int(rng.integers(len(ID_POOLS)))], dtype=np.int64)
    shape_kind = rng.uniform()
    if shape_kind < 0.15:
        height, width = 1, int(rng.integers(1, 40))
    elif shape_kind < 0.3:
        height, width = int(rng.integers(1, 40)), 1
    else:
        cell = int(rng.integers(1, 6))
        grid = rng.integers(0, pool.size, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        blocks = np.kron(grid, np.ones((cell, cell), dtype=np.int64))
        height, width = blocks.shape
    if shape_kind < 0.3:
        labels = pool[rng.integers(0, pool.size, size=(height, width))]
    else:
        labels = pool[blocks]
        n_noise = int(rng.integers(0, 1 + labels.size // 4))
        labels[rng.integers(0, height, n_noise), rng.integers(0, width, n_noise)] = pool[
            rng.integers(0, pool.size, n_noise)
        ]
    ignore_kind = rng.uniform()
    if ignore_kind < 0.1:
        labels[:, :] = IGNORE_ID
    elif ignore_kind < 0.6:
        labels[rng.uniform(size=labels.shape) < rng.uniform(0.05, 0.5)] = IGNORE_ID
    if rng.uniform() < 0.3:
        # Non-contiguous input: a transposed or strided view of a larger map.
        if rng.uniform() < 0.5:
            labels = np.ascontiguousarray(labels.T).T
        else:
            padded = np.full((2 * height, 3 * width), 5, dtype=np.int64)
            padded[::2, ::3] = labels
            labels = padded[::2, ::3]
    connectivity = 4 if rng.uniform() < 0.4 else 8
    return labels, connectivity


def _spiral(size: int) -> np.ndarray:
    """A one-pixel-wide clockwise spiral of class 1 walled by class 0: one
    component whose runs are joined in no scan-order sequence."""
    grid = np.zeros((size, size), dtype=np.int64)
    row, col, step = 0, 0, (0, 1)
    grid[0, 0] = 1
    blocked = 0
    while blocked < 2:
        nxt = (row + step[0], col + step[1])
        ahead = (nxt[0] + step[0], nxt[1] + step[1])
        inside = 0 <= nxt[0] < size and 0 <= nxt[1] < size
        closes = 0 <= ahead[0] < size and 0 <= ahead[1] < size and grid[ahead] == 1
        if inside and grid[nxt] == 0 and not closes:
            row, col = nxt
            grid[row, col] = 1
            blocked = 0
        else:
            step = (step[1], -step[0])
            blocked += 1
    return grid


def _snake(height: int, n_columns: int) -> np.ndarray:
    """One-pixel columns of class 1 linked alternately at the bottom and the
    top (class 0 between them): one component that climbs up and down."""
    grid = np.zeros((height, 2 * n_columns - 1), dtype=np.int64)
    grid[:, ::2] = 1
    grid[-1, 1::4] = 1
    grid[0, 3::4] = 1
    return grid


def _checkerboard(height: int, width: int) -> np.ndarray:
    return (np.arange(height)[:, None] + np.arange(width)[None, :]) % 2


#: Maps built from runs of a chosen shape: every pixel its own run, one run
#: per row, and single components whose runs need many union rounds.
RUN_SHAPED = {
    "checkerboard_7x9": _checkerboard(7, 9),
    "checkerboard_1x6": _checkerboard(1, 6),
    "checkerboard_ignore": np.where(_checkerboard(6, 6) == 1, IGNORE_ID, 3),
    "stripes_2": np.tile(np.arange(12) % 2, (5, 1)),
    "stripes_3_ignore": np.tile(np.arange(13) % 3 - 1, (4, 1)),
    "spiral_31": _spiral(31),
    "spiral_ignore": np.where(_spiral(24) == 1, 5, IGNORE_ID),
    "snake_9x25": _snake(9, 13),
    "one_run_per_row": np.repeat(np.array([0, 0, 1, IGNORE_ID, 1, 2, 2, 0]), 11).reshape(8, 11),
    "one_run_per_row_1col": np.array([[0], [0], [IGNORE_ID], [4], [4]]),
}


def _assert_matches_oracle(labels: np.ndarray, connectivity: int, case: str) -> None:
    """Components, count and table columns bitwise equal to the oracle's."""
    oracle_components, oracle_count, oracle_table = _oracle_segments(
        labels, connectivity, IGNORE_ID
    )

    labelling = label_components(labels, connectivity=connectivity, background=IGNORE_ID)
    assert labelling.first_index.size == oracle_count, case
    assert labelling.components.dtype == np.int64
    np.testing.assert_array_equal(labelling.components, oracle_components, err_msg=case)

    segmentation = extract_segments(labels, connectivity=connectivity, ignore_id=IGNORE_ID)
    assert segmentation.n_segments == oracle_count
    np.testing.assert_array_equal(segmentation.components, oracle_components)
    np.testing.assert_array_equal(segmentation.segment_ids(), np.arange(1, oracle_count + 1))
    for name, expected in oracle_table.items():
        column = getattr(segmentation, name)
        assert column.dtype == expected.dtype, f"{case} {name}"
        assert column.shape == expected.shape, f"{case} {name}"
        assert column.tobytes() == expected.tobytes(), f"{case} {name}"


def _assert_first_pixels_match_oracle(labels: np.ndarray, connectivity: int, case: str) -> None:
    """The run-length labeller and the scipy oracle agree on the first pixel
    of every component and on its box, size and coordinate sums."""
    oracle_components, oracle_count, oracle_table = _oracle_segments(
        labels, connectivity, IGNORE_ID
    )
    component_ids, first_index = np.unique(oracle_components, return_index=True)
    first_index = first_index[component_ids != 0]
    labelling = label_components(labels, connectivity, IGNORE_ID)
    assert labelling.first_index.dtype == np.int64, case
    np.testing.assert_array_equal(labelling.first_index, first_index, err_msg=case)
    assert labelling.first_index.size == oracle_count, case
    for field in ("boxes", "sizes", "coordinate_sums"):
        column, expected = getattr(labelling, field), oracle_table[field]
        assert column.dtype == expected.dtype, f"{case} {field}"
        assert column.tobytes() == expected.tobytes(), f"{case} {field}"


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(N_CASES))
def test_labelling_matches_full_image_oracle(seed):
    labels, connectivity = _random_label_map(seed)
    _assert_matches_oracle(labels, connectivity, f"seed={seed}")


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(N_CASES))
def test_engines_agree_on_first_pixels_and_boxes(seed):
    labels, connectivity = _random_label_map(seed)
    _assert_first_pixels_match_oracle(labels, connectivity, f"seed={seed}")


@pytest.mark.fuzz
@pytest.mark.parametrize("connectivity", (4, 8))
@pytest.mark.parametrize("case", sorted(RUN_SHAPED))
def test_run_shaped_maps(case, connectivity):
    labels = RUN_SHAPED[case]
    _assert_matches_oracle(labels, connectivity, case)
    _assert_first_pixels_match_oracle(labels, connectivity, case)


@pytest.mark.fuzz
def test_run_shaped_component_counts():
    """The shapes are what they claim: a checkerboard is one component per
    class under 8-connectivity and one per pixel under 4; the spiral and the
    snake are one component of class 1."""
    board = RUN_SHAPED["checkerboard_7x9"]
    assert label_components(board, connectivity=8).first_index.size == 2
    assert label_components(board, connectivity=4).first_index.size == board.size
    for case in ("spiral_31", "snake_9x25"):
        labels = RUN_SHAPED[case]
        components = label_components(labels, connectivity=4).components
        assert np.unique(components[labels == 1]).size == 1, case
