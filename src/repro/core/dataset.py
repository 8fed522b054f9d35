"""The structured dataset M of segment-wise metrics.

Eq. (3) of the paper defines M = {µ(k) : x ∈ X, k ∈ Ķ_x} — the collection of
metric vectors over all predicted segments of all images, together with the
segment-wise IoU targets.  :class:`MetricsDataset` is that collection: a
feature matrix plus aligned bookkeeping arrays (image id, segment id,
predicted class, IoU target), with helpers for concatenation, feature
selection, splitting and target derivation (IoU = 0 vs. > 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import RandomState, split_indices


@dataclass
class MetricsDataset:
    """Structured dataset of segment-wise metrics.

    Attributes
    ----------
    features:
        (n_segments, n_features) float matrix of metrics µ(k).
    feature_names:
        Column names, length ``n_features``.
    segment_ids:
        Per-row segment id within its image.
    class_ids:
        Per-row predicted class id.
    image_ids:
        Per-row image identifier (object array of str).
    iou:
        Per-row segment-wise IoU target in [0, 1]; ``None`` when no ground
        truth was available at extraction time.
    """

    features: np.ndarray
    feature_names: List[str]
    segment_ids: np.ndarray
    class_ids: np.ndarray
    image_ids: np.ndarray
    iou: Optional[np.ndarray] = None
    extra: dict = field(default_factory=dict)
    """Free-form per-dataset metadata (e.g. the training composition tag)."""

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        n = self.features.shape[0]
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} feature names for "
                f"{self.features.shape[1]} feature columns"
            )
        self.segment_ids = np.asarray(self.segment_ids, dtype=np.int64).ravel()
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64).ravel()
        self.image_ids = np.asarray(self.image_ids, dtype=object).ravel()
        for name, arr in (
            ("segment_ids", self.segment_ids),
            ("class_ids", self.class_ids),
            ("image_ids", self.image_ids),
        ):
            if arr.shape[0] != n:
                raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
        if self.iou is not None:
            self.iou = np.asarray(self.iou, dtype=np.float64).ravel()
            if self.iou.shape[0] != n:
                raise ValueError(f"iou must have length {n}, got {self.iou.shape[0]}")
            if np.any((self.iou < -1e-9) | (self.iou > 1 + 1e-9)):
                raise ValueError("iou targets must lie in [0, 1]")
            self.iou = np.clip(self.iou, 0.0, 1.0)

    # ------------------------------------------------------------------ ---
    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return int(self.features.shape[1])

    @property
    def has_targets(self) -> bool:
        """Whether IoU targets are available."""
        return self.iou is not None

    def target_iou(self) -> np.ndarray:
        """Continuous IoU targets (meta regression)."""
        if self.iou is None:
            raise ValueError("this dataset carries no IoU targets")
        return self.iou

    def target_iou0(self) -> np.ndarray:
        """Binary targets: 1 if IoU > 0 (true positive), 0 if IoU = 0 (false positive)."""
        return (self.target_iou() > 0.0).astype(np.int64)

    def false_positive_fraction(self) -> float:
        """Fraction of segments with IoU = 0."""
        return float(np.mean(self.target_iou0() == 0))

    # ------------------------------------------------------------------ ---
    def feature_matrix(self, feature_subset: Optional[Sequence[str]] = None) -> np.ndarray:
        """Return the feature matrix, optionally restricted to named columns."""
        if feature_subset is None:
            return self.features
        indices = [self._feature_index(name) for name in feature_subset]
        return self.features[:, indices]

    def feature(self, name: str) -> np.ndarray:
        """Return one feature column by name."""
        return self.features[:, self._feature_index(name)]

    def _feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown feature {name!r}") from exc

    def subset(self, indices: np.ndarray) -> "MetricsDataset":
        """Return a new dataset containing only the given rows."""
        indices = np.asarray(indices)
        return MetricsDataset(
            features=self.features[indices],
            feature_names=list(self.feature_names),
            segment_ids=self.segment_ids[indices],
            class_ids=self.class_ids[indices],
            image_ids=self.image_ids[indices],
            iou=None if self.iou is None else self.iou[indices],
            extra=dict(self.extra),
        )

    def split(
        self, fractions: Sequence[float] = (0.8, 0.2), random_state: RandomState = None
    ) -> Tuple["MetricsDataset", ...]:
        """Randomly split the dataset row-wise into parts of the given fractions.

        The paper's Section II protocol uses an 80 %/20 % meta train/test
        split of the predicted segments; Section III uses 70 %/10 %/20 %.
        """
        groups = split_indices(len(self), fractions, random_state)
        return tuple(self.subset(group) for group in groups)

    @staticmethod
    def concatenate(datasets: Sequence["MetricsDataset"]) -> "MetricsDataset":
        """Concatenate several datasets with identical feature columns.

        The one fold of metric datasets (per-frame extracts, stage-1
        shards, training compositions).  Row values are copied, and
        ``extra`` is a copy of the first dataset's.
        """
        datasets = list(datasets)
        if not datasets:
            raise ValueError("need at least one dataset to concatenate")
        names = datasets[0].feature_names
        for ds in datasets[1:]:
            if ds.feature_names != names:
                raise ValueError("datasets have differing feature columns")
        have_targets = [ds.has_targets for ds in datasets]
        if any(have_targets) and not all(have_targets):
            raise ValueError("cannot concatenate datasets with and without IoU targets")
        return MetricsDataset(
            features=np.vstack([ds.features for ds in datasets]),
            feature_names=list(names),
            segment_ids=np.concatenate([ds.segment_ids for ds in datasets]),
            class_ids=np.concatenate([ds.class_ids for ds in datasets]),
            image_ids=np.concatenate([ds.image_ids for ds in datasets]),
            iou=np.concatenate([ds.target_iou() for ds in datasets]) if all(have_targets) else None,
            extra=dict(datasets[0].extra),
        )

