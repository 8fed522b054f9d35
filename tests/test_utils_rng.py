"""Tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    as_rng,
    shuffled_indices,
    split_indices,
)


class TestAsRng:
    def test_none_returns_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=10)
        b = as_rng(42).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).integers(0, 10**6, size=20)
        b = as_rng(2).integers(0, 10**6, size=20)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            as_rng("not a seed")


class TestShuffledIndices:
    def test_is_permutation(self):
        perm = shuffled_indices(20, 0)
        assert sorted(perm.tolist()) == list(range(20))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            shuffled_indices(-1)

    def test_zero_is_empty(self):
        assert shuffled_indices(0, 0).size == 0


class TestSplitIndices:
    def test_partition(self):
        groups = split_indices(100, [0.8, 0.2], random_state=0)
        combined = np.concatenate(groups)
        assert sorted(combined.tolist()) == list(range(100))
        assert len(groups[0]) == 80
        assert len(groups[1]) == 20

    def test_reproducible_from_the_seed(self):
        first = split_indices(40, [0.5, 0.5], random_state=7)
        again = split_indices(40, [0.5, 0.5], random_state=7)
        other = split_indices(40, [0.5, 0.5], random_state=8)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(first[0], other[0])

    def test_last_group_absorbs_rounding(self):
        groups = split_indices(10, [0.25, 0.25, 0.5], random_state=0)
        assert [len(g) for g in groups] == [2, 2, 6]

    def test_three_way(self):
        groups = split_indices(50, [0.7, 0.1, 0.2], random_state=1)
        assert sum(len(g) for g in groups) == 50

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            split_indices(10, [0.5, 0.6])
        with pytest.raises(ValueError):
            split_indices(10, [])
        with pytest.raises(ValueError):
            split_indices(10, [1.2, -0.2])

    @given(n=st.integers(min_value=1, max_value=300), seed=st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_property_every_index_assigned_once(self, n, seed):
        groups = split_indices(n, [0.6, 0.4], random_state=seed)
        combined = sorted(np.concatenate(groups).tolist())
        assert combined == list(range(n))
