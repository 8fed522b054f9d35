"""Train/test selection of the meta tasks.

The protocols split the structured dataset of segment metrics row-wise with
``MetricsDataset.split``: 80 %/20 % meta train/test in Section II and
70 %/10 %/20 % in Section III, one seeded draw per resampling run.
"""

import numpy as np
import pytest

from repro.core.dataset import MetricsDataset


def _dataset(n: int) -> MetricsDataset:
    """n rows whose every column encodes the row number, so rows can be traced."""
    rows = np.arange(n)
    return MetricsDataset(
        features=np.column_stack([rows, 10 * rows]).astype(float),
        feature_names=["row", "ten_rows"],
        segment_ids=rows + 1,
        class_ids=rows % 19,
        image_ids=np.array([f"img{row}" for row in rows], dtype=object),
        iou=rows / max(n - 1, 1),
    )


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = _dataset(100).split((0.8, 0.2), random_state=0)
        assert len(train) == 80 and len(test) == 20

    def test_alignment_preserved(self):
        for part in _dataset(50).split((0.8, 0.2), random_state=1):
            rows = part.features[:, 0]
            np.testing.assert_array_equal(part.features[:, 1], 10 * rows)
            np.testing.assert_array_equal(part.segment_ids, rows + 1)
            np.testing.assert_array_equal(part.class_ids, rows % 19)
            assert part.image_ids.tolist() == [f"img{int(row)}" for row in rows]
            np.testing.assert_array_equal(part.target_iou(), rows / 49)

    def test_no_overlap(self):
        train, test = _dataset(30).split((0.7, 0.3), random_state=2)
        assert set(train.segment_ids).isdisjoint(set(test.segment_ids))
        assert set(train.segment_ids) | set(test.segment_ids) == set(range(1, 31))

    def test_deterministic_given_seed(self):
        dataset = _dataset(40)
        a_train, a_test = dataset.split(random_state=7)
        b_train, b_test = dataset.split(random_state=7)
        np.testing.assert_array_equal(a_train.segment_ids, b_train.segment_ids)
        np.testing.assert_array_equal(a_test.segment_ids, b_test.segment_ids)

    def test_invalid_inputs(self):
        dataset = _dataset(10)
        with pytest.raises(ValueError):
            dataset.split(())
        with pytest.raises(ValueError):
            dataset.split((0.5, 0.4))
        with pytest.raises(ValueError):
            dataset.split((1.2, -0.2))


class TestTrainValTestSplit:
    def test_partition(self):
        train, val, test = _dataset(100).split((0.7, 0.1, 0.2), random_state=0)
        assert len(train) == 70 and len(val) == 10 and len(test) == 20
        ids = np.concatenate([train.segment_ids, val.segment_ids, test.segment_ids])
        assert sorted(ids.tolist()) == list(range(1, 101))

    def test_requires_three_fractions(self):
        # One part per fraction: a three-way split needs all three.
        assert len(_dataset(10).split((0.5, 0.5), random_state=0)) == 2
        assert len(_dataset(10).split((0.7, 0.1, 0.2), random_state=0)) == 3
