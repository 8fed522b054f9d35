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
        """Concatenate several datasets with identical feature columns."""
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


class MetricsAccumulator:
    """Folds streamed :class:`MetricsDataset` chunks into one dataset.

    The never-concatenate counterpart of :meth:`MetricsDataset.concatenate`:
    instead of holding every per-image part until a final ``vstack``,
    chunks are copied into growing preallocated buffers as they arrive, so
    the peak transient memory of an extraction walk is bounded by one image
    plus the (amortised, at most 2x) output buffers — never by the full
    list of parts.  Row values are plain copies, so the accumulated dataset
    is bitwise identical to a one-shot concatenation of the same chunks.
    :meth:`repro.core.pipeline.MetaSegPipeline.extract_dataset` folds every
    image through one.
    """

    def __init__(self) -> None:
        self._n = 0
        self._capacity = 0
        self._features: Optional[np.ndarray] = None
        self._segment_ids: Optional[np.ndarray] = None
        self._class_ids: Optional[np.ndarray] = None
        self._image_ids: Optional[np.ndarray] = None
        self._iou: Optional[np.ndarray] = None
        self._feature_names: Optional[List[str]] = None
        self._extra: Optional[dict] = None
        self._has_targets: Optional[bool] = None

    def __len__(self) -> int:
        return self._n

    @property
    def empty(self) -> bool:
        """True while no chunk has been folded in yet."""
        return self._feature_names is None

    def _grow(self, needed: int, n_features: int) -> None:
        """Ensure capacity for *needed* more rows (geometric growth)."""
        required = self._n + needed
        if required <= self._capacity:
            return
        new_capacity = max(required, 2 * self._capacity, 64)
        def _resize(buffer: Optional[np.ndarray], shape, dtype) -> np.ndarray:
            grown = np.empty(shape, dtype=dtype)
            if buffer is not None and self._n:
                grown[: self._n] = buffer[: self._n]
            return grown
        self._features = _resize(
            self._features, (new_capacity, n_features), np.float64
        )
        self._segment_ids = _resize(self._segment_ids, (new_capacity,), np.int64)
        self._class_ids = _resize(self._class_ids, (new_capacity,), np.int64)
        self._image_ids = _resize(self._image_ids, (new_capacity,), object)
        if self._has_targets:
            self._iou = _resize(self._iou, (new_capacity,), np.float64)
        self._capacity = new_capacity

    def add(self, chunk: MetricsDataset) -> None:
        """Fold one streamed chunk into the accumulator."""
        if self._feature_names is None:
            self._feature_names = list(chunk.feature_names)
            self._extra = dict(chunk.extra)
            self._has_targets = chunk.has_targets
        elif chunk.feature_names != self._feature_names:
            raise ValueError("chunks have differing feature columns")
        elif chunk.has_targets != self._has_targets:
            raise ValueError("cannot accumulate chunks with and without IoU targets")
        n_new = len(chunk)
        if not n_new:
            return
        self._grow(n_new, chunk.n_features)
        stop = self._n + n_new
        self._features[self._n: stop] = chunk.features
        self._segment_ids[self._n: stop] = chunk.segment_ids
        self._class_ids[self._n: stop] = chunk.class_ids
        self._image_ids[self._n: stop] = chunk.image_ids
        if self._has_targets:
            self._iou[self._n: stop] = chunk.target_iou()
        self._n = stop

    def result(self) -> MetricsDataset:
        """The accumulated dataset (views of the buffers, trimmed to size)."""
        if self._feature_names is None:
            raise ValueError("no chunks accumulated")
        if self._features is None:  # only empty chunks arrived
            self._grow(1, len(self._feature_names))
        return MetricsDataset(
            features=self._features[: self._n],
            feature_names=list(self._feature_names),
            segment_ids=self._segment_ids[: self._n],
            class_ids=self._class_ids[: self._n],
            image_ids=self._image_ids[: self._n],
            iou=self._iou[: self._n] if self._has_targets else None,
            extra=dict(self._extra),
        )
