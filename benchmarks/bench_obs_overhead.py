"""Benchmark — telemetry overhead of the span-instrumented Runner.

PR 9 replaced the Runner's hand-rolled ``time.perf_counter`` stage timings
with hierarchical spans (:mod:`repro.obs`).  This bench reconstructs the
pre-telemetry Runner path — same resolve/extract/evaluate pipeline, stage
timings stamped by a bare ``perf_counter`` context manager — and times it
against the instrumented ``Runner().run`` on the same workload.  The gate:
the default tracer (a private per-run :class:`repro.obs.Tracer` feeding the
``report.timings`` view) costs < 3 % wall clock over the hand-rolled
baseline, measured over rotated interleaved repeats with GC parked (the
lower of the median-ratio and min-ratio estimators) so load spikes on a
busy CI box cannot fail the gate.
``NULL_TRACER`` and a shared full-tree tracer are timed as info rows, and
parity is asserted both ways (baseline numbers == report numbers; traced
``to_json`` == untraced ``to_json``).

Results are written to ``benchmarks/artifacts/BENCH_obs_overhead.json``
(and to ``benchmarks/trajectory/`` in full mode).

Invocation:

    PYTHONPATH=src:benchmarks python benchmarks/bench_obs_overhead.py          # full
    PYTHONPATH=src:benchmarks python benchmarks/bench_obs_overhead.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

from _bench_common import (
    gated_overhead,
    write_artifact,
    write_bench_json,
    write_trajectory_json,
)

from repro.api.config import DataConfig, EvalConfig, ExperimentConfig
from repro.api.execution import walk_stage1
from repro.api.kinds import metaseg_pipeline
from repro.api.runner import Runner
from repro.obs import NULL_TRACER, Tracer

#: Allowed overhead of the default (per-run) tracer over hand-rolled timings.
MAX_OVERHEAD_FRACTION = 0.03


def make_config(smoke: bool) -> ExperimentConfig:
    n_val = 4 if smoke else 12
    height, width = (64, 128) if smoke else (96, 192)
    return ExperimentConfig(
        kind="metaseg",
        name="obs-overhead",
        seed=0,
        data=DataConfig(dataset="cityscapes_like", n_val=n_val, height=height, width=width),
        evaluation=EvalConfig(n_runs=2 if smoke else 5),
    )


@contextmanager
def _timer(timings: Dict[str, float], key: str):
    """The pre-telemetry Runner's stage timer, byte for byte."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = time.perf_counter() - start


def run_baseline(config: ExperimentConfig) -> Tuple[object, Dict[str, float]]:
    """The pre-PR Runner path: same pipeline, hand-rolled stage timings."""
    runner = Runner(tracer=NULL_TRACER)
    timings: Dict[str, float] = {}
    with _timer(timings, "total"):
        with _timer(timings, "resolve"):
            resolved = runner.resolve(config)
        pipeline = metaseg_pipeline(resolved)
        with _timer(timings, "extract"):
            metrics, _, _ = walk_stage1(resolved)
        with _timer(timings, "evaluate"):
            result = pipeline.run_table1_protocol(
                metrics,
                n_runs=config.evaluation.n_runs,
                train_fraction=config.evaluation.train_fraction,
                random_state=resolved.seeds.protocol,
                classification_methods=resolved.classifiers,
                regression_methods=resolved.regressors,
                feature_subset=resolved.feature_subset,
                model_params=config.meta_models.model_params,
            )
    return result, timings


def check_parity(config: ExperimentConfig) -> None:
    """Instrumented Runner numbers == baseline numbers; tracing is bit-free."""
    report = Runner().run(config)
    result, timings = run_baseline(config)
    assert {"resolve", "extract", "evaluate", "total"} <= set(report.timings)
    assert set(timings) <= set(report.timings)
    for row in report.table("classification"):
        if row["variant"] == "naive":
            assert row["mean"] == result.naive_accuracy
            continue
        mean, std = result.classification[row["variant"]][row["metric"]]
        assert (row["mean"], row["std"]) == (mean, std), row
    traced = Runner(tracer=Tracer()).run(config)
    untraced = Runner(tracer=NULL_TRACER).run(config)
    assert traced.to_json() == untraced.to_json()
    assert untraced.timings == {}


def run(smoke: bool = False) -> dict:
    """Time all tracer modes against the baseline and write the artifacts."""
    config = make_config(smoke)
    # The true overhead is a handful of span allocations (~µs) against a
    # pipeline run of hundreds of ms, so the measurement is noise-bound.
    # The gate is estimated over rotated interleaved repeats with
    # retry-on-breach (_bench_common.gated_overhead) — robust to
    # multi-second load spikes on a busy CI box.
    repeats = 9 if smoke else 11
    # Warm-up every path once (registry loading, numpy caches) before timing.
    check_parity(config)
    default_runner = Runner()
    null_runner = Runner(tracer=NULL_TRACER)
    shared = Tracer()
    shared_runner = Runner(tracer=shared)
    (baseline_t, default_t, null_t, shared_t), overhead = gated_overhead(
        [
            lambda: run_baseline(config),
            lambda: default_runner.run(config),
            lambda: null_runner.run(config),
            lambda: shared_runner.run(config),
        ],
        repeats,
        MAX_OVERHEAD_FRACTION,
        candidate_index=1,
        baseline_index=0,
    )
    baseline_s, default_s, null_s, shared_s = (
        min(baseline_t), min(default_t), min(null_t), min(shared_t)
    )
    probe = Tracer()
    Runner(tracer=probe).run(config)
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
                "baseline_seconds": baseline_s,
                "default_tracer_seconds": default_s,
                "null_tracer_seconds": null_s,
                "shared_tracer_seconds": shared_s,
                "overhead_fraction": overhead,
                "n_spans_per_run": len(probe.records()),
            }
        ],
    }
    rows = [
        "Telemetry overhead of the span-instrumented Runner",
        f"  baseline (hand-rolled timings) {baseline_s * 1e3:8.1f} ms",
        f"  Runner, default tracer         {default_s * 1e3:8.1f} ms",
        f"  Runner, NULL_TRACER            {null_s * 1e3:8.1f} ms",
        f"  Runner, shared full-tree       {shared_s * 1e3:8.1f} ms",
        f"  default-tracer overhead {100 * overhead:+6.2f}%  "
        f"(noise-robust ratio; gate: < {100 * MAX_OVERHEAD_FRACTION:.0f}%)",
    ]
    write_artifact("obs_overhead", rows)
    write_bench_json("obs_overhead", payload)
    if not smoke:
        write_trajectory_json("obs_overhead", payload)
    return payload


def test_obs_overhead():
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
            f"WARNING: telemetry overhead {100 * overhead:.2f}% exceeds the "
            f"{100 * MAX_OVERHEAD_FRACTION:.0f}% gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
