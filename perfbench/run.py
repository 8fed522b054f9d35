"""Repository benchmark: Table I batch runs and closed-loop serving, by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload metaseg_sim_96x192 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``metaseg_sim_96x192`` — ``Runner.run`` on 48 simulated 96x192 frames;
* ``metaseg_dump_512x1024`` — the same protocol on 4 frames read from a
  Cityscapes-layout tree and float64 softmax dumps written at set-up;
* ``serve_256x512`` — two closed-loop clients POSTing 256x512 fields to a
  two-worker ``ScoringServer``.

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations, writes a Chrome
trace and a layer table under ``perfbench/out/<workload>/`` and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the host, the inputs and every metric by name and unit.  A failed
or wrong operation makes the command exit with code 1.

OpenBLAS (and any OpenMP/MKL pool) is pinned to one thread before numpy is
imported, so the meta-model fits do not vary with the BLAS thread pool.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from ledger import Ledger, build_table, format_table, layer_metrics, overhead_pct, table_payload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.obs import trace_to_chrome, validate_chrome_trace, write_json  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def declared_units(section: str) -> dict:
    """Metric name -> unit of one section of the repository's BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def blas_threads() -> object:
    """OpenBLAS thread count as the loaded libraries report it."""
    counts = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            library = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(library, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    counts[Path(path).name] = getter()
                    break
    return counts or "unknown"


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas_threads(),
        "blas_pinned": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1, set by the benchmark",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# ------------------------------------------------------------ peak memory ---
def reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark (Linux clear_refs 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident set since the last reset (VmHWM), else since start."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------- main ---
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = HERE / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    machine = host()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host: " + json.dumps(machine, sort_keys=True))

    try:
        setup_s = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        gc.collect()
        rss_reset = reset_peak_rss()
        ledger = Ledger() if args.trace else None
        start = time.perf_counter()
        measurement = workload.measure(args.seconds, ledger)
        measure_s = time.perf_counter() - start
        rss_mb = peak_rss_mb()
        start = time.perf_counter()
        workload.check(measurement)
        check_s = time.perf_counter() - start
        inputs = workload.inputs()
    finally:
        workload.teardown()

    print("inputs: " + json.dumps(inputs, sort_keys=True))
    print(
        f"setup: {statistics.median(setup_s):.4f} s median of {SETUP_REPEATS} "
        f"({', '.join(f'{value:.4f}' for value in setup_s)}); measured {measure_s:.1f} s; "
        f"reference checks {check_s:.1f} s"
    )
    for note in measurement.notes:
        print("note: " + note)

    result = {"workload": args.workload, "seed": args.seed, "host": machine, "inputs": inputs}
    if args.trace:
        table = build_table(ledger.tracer.records(), workload.stages)
        frames = measurement.traced_frames
        metrics = layer_metrics(table, frames, measurement.traced_ops, measurement.serve)
        metrics["segments.per_frame"] = measurement.segments_per_frame
        metrics["trace.overhead_pct"] = overhead_pct(measurement.untraced_s, measurement.traced_s)
        lines = format_table(table, frames) + [
            f"tracing overhead: {metrics['trace.overhead_pct']:+.2f}% (median of "
            f"{len(measurement.traced_s)} traced vs {len(measurement.untraced_s)} "
            f"untraced operations)"
        ]
        print("\n".join(lines))
        (out_dir / "layers.txt").write_text("\n".join(lines) + "\n")
        chrome = trace_to_chrome(ledger.tracer)
        problems = validate_chrome_trace(chrome)
        if problems:
            measurement.fail("chrome trace invalid: " + "; ".join(problems[:3]))
        write_json(out_dir / "trace.chrome.json", chrome)
        result["layers"] = table_payload(table, frames)
        units = declared_units("per_layer")
    else:
        metrics = dict(measurement.metrics)
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = rss_mb
        if not rss_reset:
            print("note: peak_rss_mb covers the whole process (no clear_refs)")
        units = declared_units("end_to_end")

    missing = sorted(set(units) - set(metrics))
    if missing:
        measurement.fail("metrics not measured: " + ", ".join(missing))
    measurement.extra["error_rate"] = (
        measurement.failed / max(1, measurement.attempted), "failed/attempted"
    )
    for name, (value, unit) in measurement.extra.items():
        print(f"{name} {value!r} {unit}")
    for error in measurement.errors:
        print("FAILED: " + error)
    for name in units:
        if name in metrics:
            print(f"{name} {metrics[name]!r} {units[name]}")
    correct = measurement.failed == 0
    summary = {
        "correct": correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    result.update(summary)
    write_json(out_dir / f"result_trace{args.trace}.json", result)
    print(json.dumps(summary, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
