"""Closed forms of the segment metrics, through ``SegmentMetricsExtractor``.

Each property runs the extraction the program runs (``extract_full``) on a
small Hypothesis frame and checks a value that follows from the definitions
alone, not from another implementation:

* a frame of one class is one segment with S = HW, S_in = (H-2)(W-2) and
  S_bd = 2H + 2W - 4 (image border pixels are boundary pixels);
* a frame's segment IoU against its own argmax is 1 for every segment;
* transposing labels and field swaps the centroid coordinates and leaves
  the sizes and the dispersion means unchanged (up to summation order);
* permuting the class axis permutes the ``cprob_*`` columns bitwise.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.metrics import SegmentMetricsExtractor

EXTRACTOR = SegmentMetricsExtractor()
N_CLASSES = EXTRACTOR.label_space.n_classes
NAMES = EXTRACTOR.feature_names()
CPROB = [index for index, name in enumerate(NAMES) if name.startswith("cprob_")]
#: Columns that neither the frame's orientation nor its summation order move
#: beyond rounding: sizes, and the segment means of E, M, V and max probability.
ORIENTATION_FREE = [
    name for name in NAMES if name.startswith(("S", "E_", "M_", "V_", "pmax_"))
]

side = st.integers(min_value=2, max_value=9)
seed = st.integers(min_value=0, max_value=2**32 - 1)


def _field(labels: np.ndarray, seed: int) -> np.ndarray:
    """A softmax field whose argmax is *labels*, with no ties."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=labels.shape + (N_CLASSES,))
    np.put_along_axis(logits, labels[..., None], 4.0 + np.abs(logits).max(), axis=2)
    field = np.exp(logits - logits.max(axis=2, keepdims=True))
    return field / field.sum(axis=2, keepdims=True)


def _labels(draw, height: int, width: int, n_values: int) -> np.ndarray:
    values = draw(
        st.lists(
            st.integers(0, n_values - 1), min_size=height * width, max_size=height * width
        )
    )
    return np.array(values, dtype=np.int64).reshape(height, width)


@st.composite
def frames(draw, n_values: int = 4):
    height, width = draw(side), draw(side)
    labels = _labels(draw, height, width, n_values)
    return labels, _field(labels, draw(seed))


def _column(metrics, name: str) -> np.ndarray:
    return metrics.dataset.features[:, NAMES.index(name)]


@given(height=side, width=side, class_id=st.integers(0, N_CLASSES - 1), seed=seed)
@settings(max_examples=25, deadline=None)
def test_one_class_frame_is_one_segment_with_closed_form_sizes(height, width, class_id, seed):
    labels = np.full((height, width), class_id, dtype=np.int64)
    metrics = EXTRACTOR.extract_full(_field(labels, seed))
    assert metrics.prediction.n_segments == 1
    assert _column(metrics, "S").tolist() == [height * width]
    assert _column(metrics, "S_in").tolist() == [(height - 2) * (width - 2)]
    assert _column(metrics, "S_bd").tolist() == [2 * height + 2 * width - 4]
    assert _column(metrics, "predicted_class").tolist() == [class_id]


@given(frame=frames())
@settings(max_examples=25, deadline=None)
def test_segment_iou_against_own_argmax_is_one(frame):
    labels, field = frame
    metrics = EXTRACTOR.extract_full(field, gt_labels=labels)
    np.testing.assert_array_equal(metrics.prediction.components, metrics.ground_truth.components)
    assert metrics.dataset.target_iou().tolist() == [1.0] * metrics.prediction.n_segments


@given(frame=frames())
@settings(max_examples=25, deadline=None)
def test_transpose_swaps_centroids_and_keeps_sizes_and_means(frame):
    _, field = frame
    metrics = EXTRACTOR.extract_full(field)
    transposed = EXTRACTOR.extract_full(np.ascontiguousarray(field.transpose(1, 0, 2)))
    # Segments are numbered in scan order, which transposing changes: pair
    # them through the pixels they cover.
    ids = metrics.prediction.components.ravel()
    transposed_ids = transposed.prediction.components.T.ravel()
    order = np.zeros(metrics.prediction.n_segments, dtype=np.int64)
    order[ids - 1] = transposed_ids - 1
    assert transposed.prediction.n_segments == metrics.prediction.n_segments
    features = metrics.dataset.features
    paired = transposed.dataset.features[order]
    column = NAMES.index
    np.testing.assert_allclose(paired[:, column("centroid_row")], features[:, column("centroid_col")])
    np.testing.assert_allclose(paired[:, column("centroid_col")], features[:, column("centroid_row")])
    for name in ORIENTATION_FREE:
        np.testing.assert_allclose(paired[:, column(name)], features[:, column(name)], err_msg=name)


@given(frame=frames(), permutation_seed=seed)
@settings(max_examples=25, deadline=None)
def test_class_permutation_permutes_cprob_columns_bitwise(frame, permutation_seed):
    _, field = frame
    permutation = np.random.default_rng(permutation_seed).permutation(N_CLASSES)
    assume(not np.array_equal(permutation, np.arange(N_CLASSES)))
    permuted_field = np.ascontiguousarray(field[..., permutation])
    metrics = EXTRACTOR.extract_full(field)
    permuted = EXTRACTOR.extract_full(permuted_field)
    # The same pixels win, under new class ids: the segments are the same.
    np.testing.assert_array_equal(permuted.prediction.components, metrics.prediction.components)
    cprob = metrics.dataset.features[:, CPROB]
    permuted_cprob = permuted.dataset.features[:, CPROB]
    assert permuted_cprob.tobytes() == np.ascontiguousarray(cprob[:, permutation]).tobytes()
    np.testing.assert_array_equal(
        permutation[_column(permuted, "predicted_class").astype(np.int64)],
        _column(metrics, "predicted_class"),
    )
