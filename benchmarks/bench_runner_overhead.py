"""Benchmark — Runner dispatch overhead over the direct MetaSeg pipeline.

The unified ``repro.api.runner.Runner`` resolves a declarative config through
the registries, builds the substrate/network/pipeline and then executes the
exact same extraction + Table-I-protocol code the direct
``MetaSegPipeline.run_table1_protocol`` path runs.  This bench times both
paths end to end on the same workload, asserts the results agree bitwise, and
gates the wall-clock overhead of the API layer at < 5 %.

Results are written to ``benchmarks/artifacts/BENCH_runner_overhead.json``.

Invocation:

    PYTHONPATH=src:benchmarks python benchmarks/bench_runner_overhead.py          # full
    PYTHONPATH=src:benchmarks python benchmarks/bench_runner_overhead.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from _bench_common import (
    gated_overhead,
    write_artifact,
    write_bench_json,
)

from repro.api.config import DataConfig, EvalConfig, ExperimentConfig
from repro.api.runner import Runner, derived_seeds
from repro.core.pipeline import MetaSegPipeline, MetaSegResult
from repro.segmentation.datasets import CityscapesLikeDataset
from repro.segmentation.network import SimulatedSegmentationNetwork, mobilenetv2_profile
from repro.segmentation.scene import SceneConfig

#: Allowed Runner overhead over the direct pipeline path.
MAX_OVERHEAD_FRACTION = 0.05


def make_config(smoke: bool) -> ExperimentConfig:
    n_val = 4 if smoke else 12
    height, width = (64, 128) if smoke else (96, 192)
    return ExperimentConfig(
        kind="metaseg",
        name="runner-overhead",
        seed=0,
        data=DataConfig(dataset="cityscapes_like", n_val=n_val, height=height, width=width),
        evaluation=EvalConfig(n_runs=2 if smoke else 5),
    )


def run_direct(config: ExperimentConfig) -> MetaSegResult:
    """The equivalent hand-wired pipeline call (same derived seeds)."""
    seeds = derived_seeds(config.seed)
    dataset = CityscapesLikeDataset(
        n_train=config.data.n_train,
        n_val=config.data.n_val,
        scene_config=SceneConfig(height=config.data.height, width=config.data.width),
        random_state=seeds.data,
    )
    network = SimulatedSegmentationNetwork(mobilenetv2_profile(), random_state=seeds.network)
    pipeline = MetaSegPipeline(network)
    metrics = pipeline.extract_dataset(dataset.val_samples())
    return pipeline.run_table1_protocol(
        metrics,
        n_runs=config.evaluation.n_runs,
        train_fraction=config.evaluation.train_fraction,
        random_state=seeds.protocol,
    )


def check_parity(config: ExperimentConfig) -> None:
    """Runner numbers must equal the direct pipeline numbers bitwise."""
    report = Runner().run(config)
    direct = run_direct(config)
    for row in report.table("classification"):
        if row["variant"] == "naive":
            assert row["mean"] == direct.naive_accuracy
            continue
        mean, std = direct.classification[row["variant"]][row["metric"]]
        assert (row["mean"], row["std"]) == (mean, std), row
    for row in report.table("regression"):
        mean, std = direct.regression[row["variant"]][row["metric"]]
        assert (row["mean"], row["std"]) == (mean, std), row


def run(smoke: bool = False) -> dict:
    """Time both paths, verify parity and write the artifacts."""
    config = make_config(smoke)
    # The gate is tight (< 5 %), so the overhead is estimated over rotated
    # interleaved repeats with retry-on-breach (_bench_common.gated_overhead)
    # — robust to multi-second load spikes on a busy CI box.
    repeats = 9 if smoke else 11
    # Warm-up both paths once (registry loading, numpy caches) before timing.
    check_parity(config)
    runner = Runner()
    (runner_times, direct_times), overhead = gated_overhead(
        [lambda: runner.run(config), lambda: run_direct(config)],
        repeats,
        MAX_OVERHEAD_FRACTION,
        candidate_index=0,
        baseline_index=1,
    )
    runner_seconds, direct_seconds = min(runner_times), min(direct_times)
    payload = {
        "mode": "smoke" if smoke else "full",
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
        "cases": [
            {
                "case": "metaseg_table1",
                "n_val": config.data.n_val,
                "height": config.data.height,
                "width": config.data.width,
                "n_runs": config.evaluation.n_runs,
                "repeats": repeats,
                "direct_seconds": direct_seconds,
                "runner_seconds": runner_seconds,
                "overhead_fraction": overhead,
            }
        ],
    }
    rows = [
        "Runner dispatch overhead over the direct MetaSegPipeline path",
        f"  direct  {direct_seconds * 1e3:8.1f} ms",
        f"  runner  {runner_seconds * 1e3:8.1f} ms",
        f"  overhead {100 * overhead:+6.2f}%  "
        f"(noise-robust ratio; gate: < {100 * MAX_OVERHEAD_FRACTION:.0f}%)",
    ]
    write_artifact("runner_overhead", rows)
    write_bench_json("runner_overhead", payload)
    return payload


def test_runner_overhead():
    """Smoke-mode pytest entry: parity holds and overhead stays below the gate."""
    payload = run(smoke=True)
    assert payload["cases"][0]["overhead_fraction"] < MAX_OVERHEAD_FRACTION


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small single case for CI (full mode uses the full workload)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    overhead = payload["cases"][0]["overhead_fraction"]
    if overhead >= MAX_OVERHEAD_FRACTION:
        print(
            f"WARNING: Runner overhead {100 * overhead:.2f}% exceeds the "
            f"{100 * MAX_OVERHEAD_FRACTION:.0f}% gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
