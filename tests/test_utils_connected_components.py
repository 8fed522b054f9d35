"""Tests for repro.utils.connected_components."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from repro.utils.connected_components import label_components


def _scipy_components(labels: np.ndarray, connectivity: int = 8, background: int = -1):
    """``ndimage.label`` on every class mask, renumbered in scan order of
    each component's first pixel: the numbering ``label_components``
    promises, from a labeller the repository did not write."""
    structure = ndimage.generate_binary_structure(2, 2 if connectivity == 8 else 1)
    components = np.zeros(labels.shape, dtype=np.int64)
    offset = 0
    for value in np.unique(labels):
        if value == background:
            continue
        mask = labels == value
        labelled, count = ndimage.label(mask, structure=structure)
        components[mask] = labelled[mask] + offset
        offset += count
    ids, first_index = np.unique(components, return_index=True)
    order = ids[ids != 0][np.argsort(first_index[ids != 0], kind="stable")]
    rank = np.zeros(offset + 1, dtype=np.int64)
    rank[order] = np.arange(1, order.size + 1)
    return rank[components], int(order.size)


class TestConnectedComponents:
    def test_single_uniform_region(self):
        labelling = label_components(np.zeros((4, 4), dtype=int))
        assert labelling.first_index.size == 1
        assert np.all(labelling.components == 1)

    def test_two_classes_two_components(self):
        labels = np.zeros((4, 6), dtype=int)
        labels[:, 3:] = 1
        labelling = label_components(labels)
        assert labelling.first_index.size == 2
        assert labelling.components[0, 0] != labelling.components[0, 5]

    def test_same_class_disconnected_regions(self):
        labels = np.zeros((5, 5), dtype=int)
        labels[0, 0] = 1
        labels[4, 4] = 1
        labelling = label_components(labels, connectivity=4)
        assert labelling.first_index.size == 3  # background class 0 plus two isolated class-1 pixels

    def test_background_ignored(self):
        labels = np.full((3, 3), -1)
        labels[1, 1] = 2
        labelling = label_components(labels, background=-1)
        assert labelling.first_index.size == 1
        assert labelling.components[0, 0] == 0
        assert labelling.components[1, 1] == 1

    def test_diagonal_connectivity_difference(self):
        labels = np.zeros((2, 2), dtype=int)
        labels[0, 0] = 1
        labels[1, 1] = 1
        count4 = label_components(labels, connectivity=4).first_index.size
        count8 = label_components(labels, connectivity=8).first_index.size
        # 4-connectivity: both diagonal pairs (class 1 and class 0) stay split
        # into two components each; 8-connectivity merges each pair.
        assert count4 == 4
        assert count8 == 2

    def test_ids_are_dense_and_start_at_one(self):
        labels = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        labelling = label_components(labels, connectivity=4)
        present = np.unique(labelling.components)
        assert present.min() == 1
        assert present.max() == labelling.first_index.size

    def test_invalid_connectivity(self):
        with pytest.raises(ValueError):
            label_components(np.zeros((2, 2), dtype=int), connectivity=6)

    def test_invalid_engine(self):
        # One labelling engine: ``engine`` is not a parameter.
        with pytest.raises(TypeError, match="engine"):
            label_components(np.zeros((2, 2), dtype=int), engine="magic")

    def test_scipy_engine_is_gone(self):
        with pytest.raises(TypeError, match="engine"):
            label_components(np.zeros((2, 2), dtype=int), engine="scipy")

    def test_engines_agree(self):
        """The run-length labeller agrees with scipy's ``ndimage.label``."""
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=(20, 24))
        for connectivity in (4, 8):
            labelling = label_components(labels, connectivity=connectivity)
            scipy_out, scipy_count = _scipy_components(labels, connectivity)
            assert labelling.first_index.size == scipy_count
            np.testing.assert_array_equal(labelling.components, scipy_out)

    def test_all_background(self):
        labelling = label_components(np.full((4, 4), -1))
        assert labelling.first_index.size == 0
        assert np.all(labelling.components == 0)


class TestComponentBoxes:
    def test_bounding_boxes(self):
        labels = np.zeros((6, 6), dtype=int)
        labels[2:4, 3:6] = 1
        labelling = label_components(labels)
        # There are two components; find the one covering the class-1 block.
        block_id = labelling.components[2, 3]
        assert tuple(labelling.boxes[block_id - 1]) == (2, 3, 4, 6)
        assert tuple(labelling.boxes[labelling.components[0, 0] - 1]) == (0, 0, 6, 6)

    def test_empty_components(self):
        labelling = label_components(np.full((3, 3), -1))
        assert labelling.boxes.shape == (0, 4)
        assert labelling.first_index.shape == (0,)


@given(
    labels=arrays(
        dtype=np.int64,
        shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
        elements=st.integers(min_value=-1, max_value=3),
    ),
    connectivity=st.sampled_from([4, 8]),
)
@settings(max_examples=40, deadline=None)
def test_property_components_partition_foreground(labels, connectivity):
    """Every non-background pixel gets exactly one id; components are class-pure."""
    labelling = label_components(labels, connectivity=connectivity)
    foreground = labels != -1
    assert np.all((labelling.components > 0) == foreground)
    for comp_id in range(1, labelling.first_index.size + 1):
        values = np.unique(labels[labelling.components == comp_id])
        assert values.size == 1


@given(
    labels=arrays(
        dtype=np.int64,
        shape=st.tuples(st.integers(1, 10), st.integers(1, 10)),
        elements=st.sampled_from([-1, 0, 1, 2, 7, 300, 2**40]),
    ),
    connectivity=st.sampled_from([4, 8]),
)
@settings(max_examples=40, deadline=None)
def test_property_engines_equivalent(labels, connectivity):
    """The run-length labeller and scipy's ``ndimage.label`` agree exactly.

    Ids include the ignore value -1 and gaps, up to a span larger than any
    drawn map (no table may be sized by the id span).
    """
    labelling = label_components(labels, connectivity=connectivity)
    b, count_b = _scipy_components(labels, connectivity)
    assert labelling.first_index.size == count_b
    np.testing.assert_array_equal(labelling.components, b)


def test_sparse_ids_bounded_memory():
    """A huge id span must not size any table: runs compare values directly."""
    rng = np.random.default_rng(0)
    labels = rng.choice(np.array([-1, 0, 2**40], dtype=np.int64), size=(64, 64))
    tracemalloc.start()
    try:
        labelling = label_components(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The map itself is 32 KiB; a table indexed by id would need 2**40 entries.
    assert peak < 1 << 20
    expected, expected_count = _scipy_components(labels)
    assert labelling.first_index.size == expected_count
    np.testing.assert_array_equal(labelling.components, expected)
