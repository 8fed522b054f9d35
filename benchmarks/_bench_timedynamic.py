"""Shared (cached) time-dynamic workload for the Fig. 2 and Table II benches.

Processing the KITTI-like video dataset (per-frame inference with two
networks, pseudo labelling, metric extraction, tracking) is the expensive
part of the Section III experiments; the Fig. 2 and Table II benches share
one cached copy of it and of the protocol results so the benchmark suite does
not pay for it twice.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from _bench_common import BENCH_SEQUENCE_CONFIG, scaled

from repro.segmentation.datasets import KittiLikeDataset
from repro.segmentation.network import (
    SimulatedSegmentationNetwork,
    mobilenetv2_profile,
    xception65_profile,
)
from repro.timedynamic.pipeline import TimeDynamicPipeline, TimeDynamicResult
from repro.timedynamic.time_series import SequenceMetrics

#: Number of synthetic video sequences (the paper uses 29 KITTI sequences).
N_SEQUENCES = scaled(3)
#: Frame history lengths evaluated (the paper sweeps 0..10).
N_FRAMES_LIST = (0, 2, 4, 6)
#: Random train/val/test resamplings (the paper uses 10).
N_RUNS = scaled(3, minimum=2)

_CACHE: Dict[str, object] = {}


def build_pipeline() -> TimeDynamicPipeline:
    """The Section III pipeline: MobilenetV2 under test, Xception65 as reference."""
    return TimeDynamicPipeline(
        test_network=SimulatedSegmentationNetwork(mobilenetv2_profile(), random_state=20),
        reference_network=SimulatedSegmentationNetwork(xception65_profile(), random_state=21),
        model_params={
            "gradient_boosting": {
                "n_estimators": 30, "max_depth": 3, "max_features": "sqrt", "subsample": 0.8,
            },
            "neural_network": {"hidden_layer_sizes": (24,), "n_epochs": 60},
        },
    )


def processed_sequences() -> Tuple[TimeDynamicPipeline, List[SequenceMetrics]]:
    """Run (or reuse) inference + tracking over the video dataset."""
    if "sequences" not in _CACHE:
        dataset = KittiLikeDataset(
            n_sequences=N_SEQUENCES,
            sequence_config=BENCH_SEQUENCE_CONFIG,
            labeled_stride=3,
            random_state=22,
        )
        pipeline = build_pipeline()
        _CACHE["pipeline"] = pipeline
        _CACHE["sequences"] = pipeline.process_dataset(dataset)
    return _CACHE["pipeline"], _CACHE["sequences"]


def protocol_result() -> TimeDynamicResult:
    """Run (or reuse) the full composition x method x #frames protocol."""
    if "result" not in _CACHE:
        pipeline, sequences = processed_sequences()
        _CACHE["result"] = pipeline.run_protocol(
            sequences,
            n_frames_list=N_FRAMES_LIST,
            compositions=("R", "RA", "RAP", "RP", "P"),
            methods=("gradient_boosting", "neural_network"),
            n_runs=N_RUNS,
            random_state=23,
        )
    return _CACHE["result"]
