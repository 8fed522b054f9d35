"""Time-dynamic MetaSeg (Section III of the paper).

Extends the single-frame metrics of :mod:`repro.core` to *time series* by
tracking predicted segments across video frames, and evaluates meta
classification / regression with gradient boosting and shallow neural
networks on training-data compositions built from real ground truth,
SMOTE-augmented data and pseudo ground truth produced by a stronger reference
network (the paper's R / RA / RAP / RP / P compositions).
"""

from repro.timedynamic.tracking import SegmentTracker, TrackedSegment, match_segments
from repro.timedynamic.time_series import TimeSeriesBuilder, build_time_series_dataset
from repro.timedynamic.smote import smote_regression
from repro.timedynamic.compositions import COMPOSITIONS, assemble_composition
from repro.timedynamic.pipeline import TimeDynamicPipeline, TimeDynamicResult

__all__ = [
    "SegmentTracker",
    "TrackedSegment",
    "match_segments",
    "TimeSeriesBuilder",
    "build_time_series_dataset",
    "smote_regression",
    "COMPOSITIONS",
    "assemble_composition",
    "TimeDynamicPipeline",
    "TimeDynamicResult",
]
