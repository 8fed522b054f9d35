"""Benchmark — cold vs. warm sweeps through the content-addressed store.

Runs the ISSUE's headline scenario: a 4-point sweep of a metaseg experiment
where **only the meta-model varies**, executed on the ``process`` backend so
per-shard caching engages.  Three phases over the same grid:

* ``nocache`` — caching disabled (every point recomputes everything);
* ``cold``    — fresh store: point 0 computes and publishes the extraction
  shards, points 1-3 reuse them (only the protocol re-runs);
* ``warm``    — second run against the same store: every point is served
  from the whole-report cache (no pipeline code runs at all).

Two gates, enforced by the exit code (and the pytest entry):

* **speedup** — the warm sweep must be >= 5x faster than the cold sweep;
* **parity**  — every cached report must be bitwise identical
  (``to_json``) to its uncached counterpart, and every non-first cold
  point must have reused all of its extraction shards.

Results are written to ``benchmarks/artifacts/BENCH_sweep_cache.json``.

Invocation:

    PYTHONPATH=src:benchmarks python benchmarks/bench_sweep_cache.py          # full
    PYTHONPATH=src:benchmarks python benchmarks/bench_sweep_cache.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from typing import Dict, List

from _bench_common import write_artifact, write_bench_json

from repro.store import ResultStore
from repro.sweep import SweepConfig, run_sweep

#: The warm (fully cached) sweep must beat the cold sweep by this factor.
MIN_WARM_SPEEDUP = 5.0

#: Process-shard count; explicit so shard caching engages even on 1-CPU CI
#: machines (the process backend falls back to serial for a single worker).
WORKERS = 2

#: The four meta-model variants of the sweep (the only field that varies).
META_MODEL_GRID = [
    ["logistic"],
    ["gradient_boosting"],
    ["neural_network"],
    ["logistic", "gradient_boosting"],
]


def make_sweep(smoke: bool) -> SweepConfig:
    n_val = 4 if smoke else 8
    height, width = (48, 96) if smoke else (96, 192)
    base = {
        "kind": "metaseg",
        "name": "sweep-cache-bench",
        "seed": 0,
        "data": {"dataset": "cityscapes_like", "n_val": n_val,
                 "height": height, "width": width},
        "execution": {"backend": "process", "workers": WORKERS},
        "meta_models": {
            "model_params": {"gradient_boosting": {"n_estimators": 10, "max_depth": 2},
                             "neural_network": {"n_epochs": 40,
                                                "hidden_layer_sizes": [16]}},
        },
        "evaluation": {"n_runs": 2 if smoke else 5},
    }
    return SweepConfig.from_dict({
        "name": "meta-model-sweep",
        "base": base,
        "grid": {"meta_models.classifiers": META_MODEL_GRID},
    })


def _timed_sweep(sweep: SweepConfig, store, no_cache: bool = False):
    start = time.perf_counter()
    result = run_sweep(sweep, store=store, no_cache=no_cache)
    return result, time.perf_counter() - start


def run(smoke: bool = False) -> dict:
    """Run the three phases, verify the gates and write the artifacts."""
    sweep = make_sweep(smoke)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        store = ResultStore(root)
        nocache_result, nocache_seconds = _timed_sweep(sweep, None, no_cache=True)
        cold_result, cold_seconds = _timed_sweep(sweep, store)
        warm_result, warm_seconds = _timed_sweep(sweep, store)
        store_stats = store.stats()

    # Parity gate: cached payloads are bitwise identical to uncached ones.
    for fresh, cold, warm in zip(
        nocache_result.points, cold_result.points, warm_result.points
    ):
        assert cold.report.to_json() == fresh.report.to_json(), fresh.point.label
        assert warm.report.to_json() == fresh.report.to_json(), fresh.point.label

    # Shard-reuse gate: within the cold sweep, every point after the first
    # serves all of its extraction shards from the store.
    assert cold_result.points[0].shard_cache["misses"] > 0
    reused: List[Dict[str, int]] = [
        point.shard_cache for point in cold_result.points[1:]
    ]
    assert all(counts.get("misses", 1) == 0 for counts in reused), reused
    assert all(counts.get("hits", 0) > 0 for counts in reused), reused
    assert warm_result.cache_hits == len(warm_result.points)

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    config = sweep.base
    payload = {
        "mode": "smoke" if smoke else "full",
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "cases": [
            {
                "case": "metaseg_meta_model_sweep",
                "n_points": len(META_MODEL_GRID),
                "workers": WORKERS,
                "n_val": config["data"]["n_val"],
                "height": config["data"]["height"],
                "width": config["data"]["width"],
                "n_runs": config["evaluation"]["n_runs"],
                "nocache_seconds": nocache_seconds,
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "warm_speedup": speedup,
                "cold_shard_reuse": [
                    dict(point.shard_cache) for point in cold_result.points
                ],
                "store_entries": store_stats["n_entries"],
                "store_payload_bytes": store_stats["payload_bytes"],
                "parity": "bitwise (cached == fresh, all points)",
            }
        ],
    }
    rows = [
        f"Sweep result caching ({len(META_MODEL_GRID)} meta-model points, "
        f"process backend @ {WORKERS} workers)",
        "  parity   cached reports bitwise-equal to uncached: OK",
        "  shards   cold points 1..n reuse every extraction shard: OK",
        f"  nocache  {nocache_seconds * 1e3:9.1f} ms",
        f"  cold     {cold_seconds * 1e3:9.1f} ms",
        f"  warm     {warm_seconds * 1e3:9.1f} ms",
        f"  speedup  {speedup:7.1f}x warm-over-cold  (gate: >= {MIN_WARM_SPEEDUP:.0f}x)",
    ]
    write_artifact("sweep_cache", rows)
    write_bench_json("sweep_cache", payload)
    return payload


def test_sweep_cache():
    """Smoke-mode pytest entry: parity holds and warm beats cold >= 5x."""
    payload = run(smoke=True)
    assert payload["cases"][0]["warm_speedup"] >= MIN_WARM_SPEEDUP


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload for CI (full mode uses the full workload)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)  # parity asserts are the hard gate
    speedup = payload["cases"][0]["warm_speedup"]
    if speedup < MIN_WARM_SPEEDUP:
        print(
            f"FAIL: warm sweep speedup {speedup:.2f}x below the "
            f"{MIN_WARM_SPEEDUP:.0f}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
