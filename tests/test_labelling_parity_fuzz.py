"""Parity fuzz for the box-local connected-component labeller.

``label_components`` labels each class only inside its bounding box, finds
first pixels with a scatter-min and takes the component boxes from the same
pass; ``extract_segments`` fills every column of its segment table from that
one pass with array expressions.
The oracle below is the straightforward decomposition those replaced, kept
here verbatim: ``ndimage.label`` on the full-image mask of every class,
``np.unique`` scan-order renumbering, a second ``np.unique`` for first
pixels and a full-image ``find_objects`` for the boxes.  Every case asserts
bitwise-equal components, counts and table columns (class ids, sizes,
boxes, coordinate sums, centroids: same dtype, same shape, same bytes), where
the oracle fills each row in a per-segment loop, and that the union-find
engine agrees with the scipy engine on the component image, the first pixels
and the boxes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from scipy import ndimage

from repro.core.segments import extract_segments
from repro.utils.connected_components import connected_components, label_components

N_CASES = 240

IGNORE_ID = -1

#: Table columns of a ``Segmentation``, compared bitwise against the oracle.
TABLE_COLUMNS = ("class_ids", "sizes", "boxes", "coordinate_sums", "centroids")

#: Class-id pools: contiguous, gapped, and sparse enough (span larger than
#: any fuzzed frame) to take the compacting ``np.unique`` route.
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


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(N_CASES))
def test_labelling_matches_full_image_oracle(seed):
    labels, connectivity = _random_label_map(seed)
    oracle_components, oracle_count, oracle_table = _oracle_segments(
        labels, connectivity, IGNORE_ID
    )

    components, count = connected_components(
        labels, connectivity=connectivity, background=IGNORE_ID
    )
    assert count == oracle_count
    assert components.dtype == np.int64
    np.testing.assert_array_equal(components, oracle_components)

    segmentation = extract_segments(labels, connectivity=connectivity, ignore_id=IGNORE_ID)
    assert segmentation.n_segments == oracle_count
    np.testing.assert_array_equal(segmentation.components, oracle_components)
    np.testing.assert_array_equal(segmentation.segment_ids(), np.arange(1, oracle_count + 1))
    for name, expected in oracle_table.items():
        column = getattr(segmentation, name)
        assert column.dtype == expected.dtype, f"seed={seed} {name}"
        assert column.shape == expected.shape, f"seed={seed} {name}"
        assert column.tobytes() == expected.tobytes(), f"seed={seed} {name}"


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(N_CASES))
def test_engines_agree_on_first_pixels_and_boxes(seed):
    labels, connectivity = _random_label_map(seed)
    fast = label_components(labels, connectivity, IGNORE_ID, engine="scipy")
    fallback = label_components(labels, connectivity, IGNORE_ID, engine="unionfind")
    for field in ("components", "first_index", "boxes"):
        a, b = getattr(fast, field), getattr(fallback, field)
        assert a.dtype == b.dtype == np.int64, field
        np.testing.assert_array_equal(a, b, err_msg=f"seed={seed} {field}")
