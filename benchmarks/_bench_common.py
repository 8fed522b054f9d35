"""Shared helpers for the benchmark harnesses.

Each ``bench_*.py`` is a CLI that times one part of the system and gates it:
bitwise parity with a reference path plus a speed, overhead or latency
bound.  ``--smoke`` runs the small CI case.  The paper's tables and figures are
not benchmarks: they come from the paper configs in ``examples/configs``,
and ``scripts/paper_claims.py`` checks their claims.

Benches write their rows to stdout and to ``benchmarks/artifacts/<name>.txt``
(gitignored) and their timings to ``benchmarks/artifacts/BENCH_<name>.json``;
full (non-smoke) runs also write the committed ``benchmarks/trajectory``
summaries.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Callable, Iterable, List

#: Directory where benches drop their row and JSON artifacts.
ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"

#: Tracked directory for committed benchmark summaries.  Unlike
#: ``benchmarks/artifacts`` (gitignored, regenerated every run), JSONs written
#: here are committed so the perf trajectory survives across PRs; benches only
#: write them in full (non-smoke) mode so CI smoke runs never dirty the tree.
TRAJECTORY_DIR = Path(__file__).resolve().parent / "trajectory"


def write_artifact(name: str, rows: Iterable[str]) -> Path:
    """Write benchmark output rows to ``benchmarks/artifacts/<name>.txt``."""
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / f"{name}.txt"
    text = "\n".join(rows) + "\n"
    path.write_text(text)
    print(text)
    return path


def _write_bench_record(directory: Path, name: str, payload: dict) -> Path:
    """Write one ``BENCH_<name>.json`` record into *directory*."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    record = {"bench": name, "unit": "seconds"}
    record.update(payload)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def write_bench_json(name: str, payload: dict) -> Path:
    """Write a benchmark result to ``benchmarks/artifacts/BENCH_<name>.json``.

    The standard shape is ``{"bench": <name>, "unit": "seconds", "cases":
    [...]}`` plus free-form configuration keys, so successive runs of a bench
    can be diffed to track the performance trajectory.
    """
    return _write_bench_record(ARTIFACT_DIR, name, payload)


def write_trajectory_json(name: str, payload: dict) -> Path:
    """Write a committed benchmark summary to ``benchmarks/trajectory``.

    Same record shape as :func:`write_bench_json`; call only from full
    (non-smoke) benchmark runs.
    """
    return _write_bench_record(TRAJECTORY_DIR, name, payload)


def interleaved_times(
    fns: List[Callable[[], object]], repeats: int
) -> List[List[float]]:
    """Per-repeat wall-clock timings with all paths interleaved, GC parked.

    Interleaving keeps machine drift (thermal throttling, background load)
    from being attributed to whichever path runs last, rotating the start
    slot each repeat cancels fixed position effects (a periodic background
    task aliasing with the loop), and disabling the cyclic GC keeps
    collection pauses from landing in one path's slot.  Returns one list of
    ``repeats`` durations per input callable.
    """
    times: List[List[float]] = [[] for _ in fns]
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for repeat in range(repeats):
            for offset in range(len(fns)):
                slot = (repeat + offset) % len(fns)
                start = time.perf_counter()
                fns[slot]()
                times[slot].append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return times


def median(values: List[float]) -> float:
    """Median of a non-empty list (mean of the middle pair when even)."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def overhead_fraction(
    candidate_times: List[float], baseline_times: List[float]
) -> float:
    """Noise-robust overhead fraction of a candidate path over a baseline.

    Scheduling noise on a loaded CI box is strictly additive, so every
    timing-ratio estimator is biased upward.  This takes the LOWER of two
    estimators with independent failure modes — the ratio of per-path
    medians (robust to a lucky single sample) and the ratio of per-path
    minima (robust to a contaminated majority of repeats) — so a spurious
    gate failure needs noise to inflate both at once.  A real regression
    inflates both.
    """
    by_median = median(candidate_times) / median(baseline_times)
    by_min = min(candidate_times) / min(baseline_times)
    return min(by_median, by_min) - 1.0


def gated_overhead(
    fns: List[Callable[[], object]],
    repeats: int,
    gate: float,
    candidate_index: int = 1,
    baseline_index: int = 0,
    attempts: int = 3,
) -> tuple:
    """Measure an overhead gate with retry-on-breach.

    A single timing window (one :func:`interleaved_times` call) can land
    entirely inside a multi-second background-load spike, inflating every
    estimator at once.  On a breach the whole measurement is redone in a
    fresh window, up to ``attempts`` times, and the lowest overhead seen
    wins: noise rarely contaminates several independent windows, while a
    real regression fails all of them.  Returns ``(times, overhead)`` for
    the winning window.
    """
    best_times: List[List[float]] = []
    best_overhead = float("inf")
    for _ in range(attempts):
        times = interleaved_times(fns, repeats)
        overhead = overhead_fraction(times[candidate_index], times[baseline_index])
        if overhead < best_overhead:
            best_times, best_overhead = times, overhead
        if best_overhead < gate:
            break
    return best_times, best_overhead

