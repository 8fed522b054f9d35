"""Benchmark — sharded process-pool Runner backend vs. the serial path.

The ``process`` execution backend shards the workload's index range across a
``ProcessPoolExecutor``; every shard rebuilds its components from the config
and the derived seeds, so the merged result is **bitwise identical** to the
serial path.  This bench:

1. asserts that bitwise parity on a metaseg workload — always a hard gate;
2. times the serial and sharded paths end to end and records the speedup in
   ``benchmarks/artifacts/BENCH_sharded_runner.json``.

The speedup gate (>= 2x at 4 workers, enforced through the exit code) only
engages when the machine actually has at least as many CPU cores as
requested shards: a process pool cannot beat serial execution on a
single-core container, and pretending otherwise would just teach people to
ignore the gate.  Whether the gate was enforced or skipped — and why — is
recorded in the artifact.

Invocation:

    PYTHONPATH=src:benchmarks python benchmarks/bench_sharded_runner.py          # full, 4 workers
    PYTHONPATH=src:benchmarks python benchmarks/bench_sharded_runner.py --smoke  # CI, 2 workers
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List

from _bench_common import write_artifact, write_bench_json

from repro.api.config import (
    DataConfig,
    EvalConfig,
    ExecutionConfig,
    ExperimentConfig,
)
from repro.api.runner import ExperimentReport, Runner

#: Required speedup of the sharded path at the full worker count.
MIN_SPEEDUP = 2.0

#: Worker counts per mode.
FULL_WORKERS = 4
SMOKE_WORKERS = 2


def make_config(smoke: bool, execution: ExecutionConfig) -> ExperimentConfig:
    """An extraction-dominated metaseg workload (the protocol stays tiny)."""
    n_val = 8 if smoke else 24
    height, width = (64, 128) if smoke else (96, 192)
    return ExperimentConfig(
        kind="metaseg",
        name="sharded-runner",
        seed=0,
        data=DataConfig(dataset="cityscapes_like", n_val=n_val, height=height, width=width),
        evaluation=EvalConfig(n_runs=1),
        execution=execution,
    )


def check_parity(serial: ExperimentReport, other: ExperimentReport, label: str) -> None:
    """Hard gate: tables and provenance must be bitwise equal to serial."""
    assert other.tables == serial.tables, f"{label}: tables differ from serial"
    assert other.provenance == serial.provenance, (
        f"{label}: provenance differs from serial"
    )


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(smoke: bool = False) -> dict:
    workers = SMOKE_WORKERS if smoke else FULL_WORKERS
    runner = Runner()
    serial_config = make_config(smoke, ExecutionConfig(backend="serial"))
    sharded_config = make_config(
        smoke, ExecutionConfig(backend="process", workers=workers)
    )

    # Parity first (also warms every path before the timing runs).
    serial_report = runner.run(serial_config)
    check_parity(serial_report, runner.run(sharded_config), f"process@{workers}")

    repeats = 2 if smoke else 3
    serial_seconds = best_of(lambda: runner.run(serial_config), repeats)
    sharded_seconds = best_of(lambda: runner.run(sharded_config), repeats)
    speedup = serial_seconds / sharded_seconds

    n_cpus = os.cpu_count() or 1
    if smoke:
        gate = "skipped (smoke mode: parity only)"
        enforce_speedup = False
    elif n_cpus < workers:
        gate = f"skipped ({n_cpus} CPU core(s) < {workers} workers)"
        enforce_speedup = False
    else:
        gate = f"enforced (>= {MIN_SPEEDUP:.1f}x)"
        enforce_speedup = True

    config = serial_config
    payload = {
        "mode": "smoke" if smoke else "full",
        "min_speedup": MIN_SPEEDUP,
        "n_cpus": n_cpus,
        "speedup_gate": gate,
        "cases": [
            {
                "case": "metaseg_extraction",
                "workers": workers,
                "n_val": config.data.n_val,
                "height": config.data.height,
                "width": config.data.width,
                "repeats": repeats,
                "serial_seconds": serial_seconds,
                "sharded_seconds": sharded_seconds,
                "speedup": speedup,
                "parity": "bitwise (process vs serial)",
            }
        ],
    }
    rows = [
        f"Sharded process-pool Runner backend vs serial ({config.data.n_val} images "
        f"at {config.data.height}x{config.data.width}, {workers} workers, {n_cpus} CPU core(s))",
        "  parity   process bitwise-equal to serial: OK",
        f"  serial   {serial_seconds * 1e3:8.1f} ms",
        f"  sharded  {sharded_seconds * 1e3:8.1f} ms",
        f"  speedup  {speedup:6.2f}x  (gate: {gate})",
    ]
    write_artifact("sharded_runner", rows)
    write_bench_json("sharded_runner", payload)
    payload["enforce_speedup"] = enforce_speedup
    return payload


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload at 2 workers; parity gate only (CI)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)  # parity asserts are the hard gate
    speedup = payload["cases"][0]["speedup"]
    if payload["enforce_speedup"] and speedup < MIN_SPEEDUP:
        print(
            f"FAIL: sharded speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP:.1f}x gate on {payload['n_cpus']} CPU cores",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
