"""Segment-metric time series.

Section III extends every scalar segment metric M_i to a time series by
presenting, for a segment in frame t, the metrics of the *same tracked
segment* in up to 10 previous frames to the meta classifier / regressor.
This module builds those time-series feature vectors from per-frame metric
datasets and the tracker of :mod:`repro.timedynamic.tracking`.

Missing history (tracks younger than the requested number of frames) is
filled by persisting the oldest observed value, and the number of actually
observed history frames is added as an extra feature, so the models can learn
that young (flickering) segments are less reliable — one of the time-dynamic
effects the paper exploits.

Pseudo IoU targets (Section III: the reference network's prediction stands
in for ground truth on unlabelled frames) come from :func:`segment_ious` of
each frame's prediction against the decomposed pseudo label map, aligned
with the frame's segment ids like the real targets.  A processed sequence
keeps only what the protocol reads — each frame's :class:`MetricsDataset`,
the tracks and the per-frame track assignments — not the frames' segment
decompositions, so it stays small when it crosses a process pool or goes
into the result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import MetricsDataset
from repro.core.metrics import SegmentMetricsExtractor
from repro.core.segments import extract_segments, segment_ious
from repro.timedynamic.tracking import SegmentTracker, TrackedSegment

#: Default per-frame metrics used as the base of the time series.  A compact
#: subset keeps the concatenated feature vectors manageable for up to 10
#: previous frames while covering dispersion, geometry and confidence.
DEFAULT_BASE_FEATURES = (
    "E_mean", "E_bd_mean", "E_rel",
    "M_mean", "V_mean",
    "S", "S_bd", "S_rel",
    "pmax_mean", "predicted_class", "is_thing",
    "centroid_row", "centroid_col",
)


@dataclass
class SequenceMetrics:
    """Per-frame metrics datasets plus the tracks of one video sequence.

    ``track_assignments[t]`` maps frame t's segment ids to track ids, and
    ``tracks`` maps each track id to its :class:`TrackedSegment`.
    """

    sequence_id: int
    datasets: List[MetricsDataset]
    track_assignments: List[Dict[int, int]]
    tracks: Dict[int, TrackedSegment]
    pseudo_iou: List[Optional[np.ndarray]] = field(default_factory=list)
    real_iou_available: List[bool] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        """Number of frames in the sequence."""
        return len(self.datasets)


class TimeSeriesBuilder:
    """Run per-frame metric extraction + tracking over a video sequence."""

    def __init__(
        self,
        extractor: Optional[SegmentMetricsExtractor] = None,
        max_missed_frames: int = 2,
        min_overlap_fraction: float = 0.1,
    ) -> None:
        self.extractor = extractor or SegmentMetricsExtractor()
        self.max_missed_frames = max_missed_frames
        self.min_overlap_fraction = min_overlap_fraction

    def process_sequence(
        self,
        probability_fields: Sequence[np.ndarray],
        gt_labels: Sequence[Optional[np.ndarray]],
        pseudo_gt_labels: Optional[Sequence[Optional[np.ndarray]]] = None,
        sequence_id: int = 0,
    ) -> SequenceMetrics:
        """Extract metrics, IoU targets and tracks for one sequence.

        Parameters
        ----------
        probability_fields:
            Softmax field per frame (from the network under test).
        gt_labels:
            Real ground truth per frame, or ``None`` for unlabelled frames.
        pseudo_gt_labels:
            Optional pseudo ground truth per frame (predictions of a stronger
            reference network); when given, pseudo IoU targets are computed
            for every frame that has one.
        """
        if len(probability_fields) == 0:
            raise ValueError("the sequence must contain at least one frame")
        if len(gt_labels) != len(probability_fields):
            raise ValueError("gt_labels must align with probability_fields")
        if pseudo_gt_labels is not None and len(pseudo_gt_labels) != len(probability_fields):
            raise ValueError("pseudo_gt_labels must align with probability_fields")

        tracker = SegmentTracker(
            max_missed_frames=self.max_missed_frames,
            min_overlap_fraction=self.min_overlap_fraction,
        )
        datasets: List[MetricsDataset] = []
        assignments: List[Dict[int, int]] = []
        pseudo_iou: List[Optional[np.ndarray]] = []
        real_available: List[bool] = []
        for frame_index, probs in enumerate(probability_fields):
            gt = gt_labels[frame_index]
            image_metrics = self.extractor.extract_full(
                probs,
                gt_labels=gt,
                image_id=f"seq{sequence_id:03d}_frame{frame_index:04d}",
            )
            datasets.append(image_metrics.dataset)
            real_available.append(gt is not None)
            assignments.append(tracker.update(image_metrics.prediction))
            if pseudo_gt_labels is not None and pseudo_gt_labels[frame_index] is not None:
                pseudo_iou.append(
                    segment_ious(
                        image_metrics.prediction, extract_segments(pseudo_gt_labels[frame_index])
                    )
                )
            else:
                pseudo_iou.append(None)
        return SequenceMetrics(
            sequence_id=sequence_id,
            datasets=datasets,
            track_assignments=assignments,
            tracks=tracker.tracks,
            pseudo_iou=pseudo_iou,
            real_iou_available=real_available,
        )


def time_series_feature_names(
    base_features: Sequence[str], n_previous: int
) -> List[str]:
    """Names of the concatenated time-series features."""
    names = [f"{name}_t0" for name in base_features]
    for lag in range(1, n_previous + 1):
        names.extend(f"{name}_t-{lag}" for name in base_features)
    names.append("observed_history")
    return names


def build_time_series_dataset(
    sequences: Sequence[SequenceMetrics],
    n_previous: int,
    target: str = "real",
    base_features: Sequence[str] = DEFAULT_BASE_FEATURES,
) -> MetricsDataset:
    """Assemble the time-series metrics dataset over several sequences.

    Parameters
    ----------
    sequences:
        Output of :meth:`TimeSeriesBuilder.process_sequence`.
    n_previous:
        Number of previous frames whose metrics are appended (0 reproduces
        the single-frame MetaSeg features restricted to *base_features*).
    target:
        ``"real"`` to use IoU targets from real ground truth (rows are only
        produced for frames that have it), ``"pseudo"`` to use pseudo IoU
        targets from the reference network.
    base_features:
        Per-frame metrics forming the base of the time series.
    """
    if n_previous < 0:
        raise ValueError("n_previous must be non-negative")
    if target not in ("real", "pseudo"):
        raise ValueError("target must be 'real' or 'pseudo'")
    rows: List[np.ndarray] = []
    targets: List[float] = []
    segment_ids: List[int] = []
    class_ids: List[int] = []
    image_ids: List[str] = []
    base_features = list(base_features)

    for sequence in sequences:
        base_matrices: List[np.ndarray] = []
        id_to_row: List[Dict[int, int]] = []
        for dataset in sequence.datasets:
            base_matrices.append(dataset.feature_matrix(base_features))
            id_to_row.append({int(sid): i for i, sid in enumerate(dataset.segment_ids)})
        for frame_index, dataset in enumerate(sequence.datasets):
            if target == "real":
                if not sequence.real_iou_available[frame_index]:
                    continue
                frame_targets = dataset.iou
            else:
                frame_targets = sequence.pseudo_iou[frame_index]
                if frame_targets is None:
                    continue
            assignment = sequence.track_assignments[frame_index]
            for row_index, segment_id in enumerate(dataset.segment_ids):
                segment_id = int(segment_id)
                track_id = assignment.get(segment_id)
                track = sequence.tracks.get(track_id) if track_id is not None else None
                history_rows: List[np.ndarray] = [base_matrices[frame_index][row_index]]
                observed = 0
                last_seen = history_rows[0]
                for lag in range(1, n_previous + 1):
                    past_frame = frame_index - lag
                    past_row: Optional[np.ndarray] = None
                    if past_frame >= 0 and track is not None:
                        past_segment = track.segment_history.get(past_frame)
                        if past_segment is not None:
                            past_index = id_to_row[past_frame].get(int(past_segment))
                            if past_index is not None:
                                past_row = base_matrices[past_frame][past_index]
                    if past_row is not None:
                        observed += 1
                        last_seen = past_row
                        history_rows.append(past_row)
                    else:
                        history_rows.append(last_seen)
                feature_vector = np.concatenate(history_rows + [np.array([float(observed)])])
                rows.append(feature_vector)
                targets.append(float(frame_targets[row_index]))
                segment_ids.append(segment_id)
                class_ids.append(int(dataset.class_ids[row_index]))
                image_ids.append(str(dataset.image_ids[row_index]))

    if not rows:
        raise ValueError("no rows produced; check ground-truth availability and target type")
    features = np.vstack(rows)
    return MetricsDataset(
        features=features,
        feature_names=time_series_feature_names(base_features, n_previous),
        segment_ids=np.asarray(segment_ids, dtype=np.int64),
        class_ids=np.asarray(class_ids, dtype=np.int64),
        image_ids=np.asarray(image_ids, dtype=object),
        iou=np.asarray(targets, dtype=np.float64),
        extra={"n_previous": n_previous, "target": target},
    )
