"""Benchmark — distributed dispatch-queue Runner backend vs. the serial path.

The ``distributed`` execution backend fans shard specs out over a localhost
TCP work queue (``repro.dispatch``) with lease timeouts, retry/backoff and
inline graceful degradation; every shard rebuilds its components from the
config and derived seeds, so the merged result is **bitwise identical** to
the serial path.  This bench:

1. asserts bitwise parity on a metaseg workload — healthy queue *and* under
   an injected kill-one-worker fault plan (worker-loss recovery must change
   wall-clock only, never numbers) — always a hard gate;
2. times the serial and distributed paths end to end and records the
   speedup in ``benchmarks/artifacts/BENCH_distributed.json`` (and the
   committed ``benchmarks/trajectory`` copy in full mode).

The speedup gate (>= 2x at 4 workers, enforced through the exit code) only
engages when the machine actually has at least as many CPU cores as
workers: a socket work queue cannot beat serial execution on a single-core
container, and pretending otherwise would just teach people to ignore the
gate.  Whether the gate was enforced or skipped — and why — is recorded in
the artifact.

Invocation:

    PYTHONPATH=src:benchmarks python benchmarks/bench_distributed.py          # full, 4 workers
    PYTHONPATH=src:benchmarks python benchmarks/bench_distributed.py --smoke  # CI, 2 workers
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List

from _bench_common import (
    write_artifact,
    write_bench_json,
    write_trajectory_json,
)

from repro.api.config import (
    DataConfig,
    EvalConfig,
    ExecutionConfig,
    ExperimentConfig,
)
from repro.api.runner import ExperimentReport, Runner
from repro.dispatch import FAULTS_ENV, FaultPlan

#: Required speedup of the distributed path at the full worker count.
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
        name="distributed-dispatch",
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


def run_with_faults(runner: Runner, config: ExperimentConfig, plan: FaultPlan):
    """One run with the fault plan in the environment (restored after)."""
    previous = os.environ.get(FAULTS_ENV)
    os.environ[FAULTS_ENV] = plan.to_json()
    try:
        return runner.run(config)
    finally:
        if previous is None:
            os.environ.pop(FAULTS_ENV, None)
        else:
            os.environ[FAULTS_ENV] = previous


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
    distributed_config = make_config(
        smoke, ExecutionConfig(backend="distributed", workers=workers, backoff=0.01)
    )

    # Parity first (also warms every path before the timing runs).
    serial_report = runner.run(serial_config)
    healthy_report = runner.run(distributed_config)
    check_parity(serial_report, healthy_report, f"distributed@{workers}")
    healthy_stats = dict(healthy_report.cache.get("dispatch", {}))
    assert healthy_stats.get("quarantined", 0) == 0, (
        f"healthy run quarantined a shard: {healthy_stats}"
    )

    # Fault-recovery gate: kill whichever worker leases shard 0 on its first
    # attempt; the run must recover (one retry) with the serial numbers.
    kill_plan = FaultPlan([{"task": 0, "attempt": 0, "action": "kill"}])
    faulted_report = run_with_faults(runner, distributed_config, kill_plan)
    check_parity(faulted_report, serial_report, "distributed+kill-one")
    faulted_stats = dict(faulted_report.cache.get("dispatch", {}))
    assert faulted_stats.get("worker_lost") == 1, (
        f"kill-one plan did not register a worker loss: {faulted_stats}"
    )
    assert faulted_stats.get("retries") == 1, (
        f"kill-one plan expected exactly one retry: {faulted_stats}"
    )

    repeats = 2 if smoke else 3
    serial_seconds = best_of(lambda: runner.run(serial_config), repeats)
    distributed_seconds = best_of(lambda: runner.run(distributed_config), repeats)
    speedup = serial_seconds / distributed_seconds

    n_cpus = os.cpu_count() or 1
    if smoke:
        gate = "skipped (smoke mode: parity + fault recovery only)"
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
                "distributed_seconds": distributed_seconds,
                "speedup": speedup,
                "parity": "bitwise (healthy + kill-one-worker vs serial)",
                "fault_recovery": {
                    "plan": kill_plan.entries,
                    "worker_lost": faulted_stats.get("worker_lost"),
                    "retries": faulted_stats.get("retries"),
                    "completed": faulted_stats.get("completed"),
                },
            }
        ],
    }
    rows = [
        f"Distributed dispatch-queue Runner backend vs serial ({config.data.n_val} images "
        f"at {config.data.height}x{config.data.width}, {workers} workers, {n_cpus} CPU core(s))",
        "  parity      healthy queue bitwise-equal to serial: OK",
        "  fault       kill-one-worker recovers bitwise (1 loss, 1 retry): OK",
        f"  serial      {serial_seconds * 1e3:8.1f} ms",
        f"  distributed {distributed_seconds * 1e3:8.1f} ms",
        f"  speedup     {speedup:6.2f}x  (gate: {gate})",
    ]
    write_artifact("distributed", rows)
    write_bench_json("distributed", payload)
    if not smoke:
        write_trajectory_json("distributed", payload)
    payload["enforce_speedup"] = enforce_speedup
    return payload


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload at 2 workers; parity + fault gates only (CI)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)  # parity/fault asserts are the hard gate
    speedup = payload["cases"][0]["speedup"]
    if payload["enforce_speedup"] and speedup < MIN_SPEEDUP:
        print(
            f"FAIL: distributed speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP:.1f}x gate on {payload['n_cpus']} CPU cores",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
