"""Benchmark — vectorized contingency-table matching vs per-segment loops.

Times the three segment-matching primitives (`segment_ious`,
`false_negative_segments`, `segment_precision_recall`) against the retained
``_reference_*`` per-segment implementations (``tests/reference/segments.py``)
on synthetic label maps with hundreds of segments, at 256×512 and 512×1024.
Results are written both as human-readable rows and as
``benchmarks/artifacts/BENCH_segment_matching.json`` so the perf trajectory
of the matching hot path is recorded run over run.  Every case first
asserts that the fast results equal the references bitwise (IoU per segment
id, false-negative ids, precision/recall dicts including their order).

Invocation (the segment decomposition itself is not part of the timed
region):

    PYTHONPATH=src:tests python benchmarks/bench_segment_matching.py           # full
    PYTHONPATH=src:tests python benchmarks/bench_segment_matching.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from _bench_common import write_artifact, write_bench_json

from reference.segments import (
    _reference_false_negative_segments,
    _reference_segment_ious,
    _reference_segment_precision_recall,
)
from repro.core.segments import (
    Segmentation,
    extract_segments,
    false_negative_segments,
    segment_ious,
    segment_precision_recall,
)

#: (name, height, width, cell) benchmark cases; the cell size is chosen so
#: each map decomposes into roughly 300 predicted segments.
FULL_CASES = (
    ("256x512", 256, 512, 16),
    ("512x1024", 512, 1024, 32),
)
SMOKE_CASES = (("128x256_smoke", 128, 256, 16),)

N_CLASSES = 8
PR_CLASS_IDS = [1, 2]


def make_case(height: int, width: int, cell: int, seed: int = 0) -> Tuple[Segmentation, Segmentation]:
    """Synthetic GT/prediction pair with many chunky segments."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, N_CLASSES, size=(height // cell, width // cell))
    gt = np.kron(grid, np.ones((cell, cell), dtype=np.int64)).astype(np.int64)
    # Sparse ignore rectangles.
    for _ in range(4):
        r0 = int(rng.integers(0, height - cell))
        c0 = int(rng.integers(0, width - cell))
        gt[r0:r0 + cell, c0:c0 + cell] = -1
    # Prediction: shifted ground truth plus rectangle noise, labels everywhere.
    pred = np.where(gt == -1, rng.integers(0, N_CLASSES, size=gt.shape), gt)
    pred = np.roll(pred, (cell // 3, -cell // 4), axis=(0, 1))
    for _ in range(12):
        r0 = int(rng.integers(0, height - cell))
        c0 = int(rng.integers(0, width - cell))
        pred[r0:r0 + cell // 2, c0:c0 + cell // 2] = int(rng.integers(0, N_CLASSES))
    prediction = extract_segments(pred)
    ground_truth = extract_segments(gt, ignore_id=-1)
    return prediction, ground_truth


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_case(
    name: str, height: int, width: int, cell: int, reference_repeats: int, fast_repeats: int
) -> Dict[str, object]:
    """Parity-check, then time old vs new matching on one synthetic case."""
    prediction, ground_truth = make_case(height, width, cell)
    reference_ious = _reference_segment_ious(prediction, ground_truth)
    fast_ious = segment_ious(prediction, ground_truth)
    if list(reference_ious) != prediction.segment_ids().tolist() or (
        fast_ious.tolist() != list(reference_ious.values())
    ):
        raise AssertionError(f"{name}: segment_ious diverges from the reference")
    if false_negative_segments(prediction, ground_truth).tolist() != (
        _reference_false_negative_segments(prediction, ground_truth)
    ):
        raise AssertionError(f"{name}: false_negative_segments diverges from the reference")
    fast_pr = segment_precision_recall(prediction, ground_truth, class_ids=PR_CLASS_IDS)
    reference_pr = _reference_segment_precision_recall(
        prediction, ground_truth, class_ids=PR_CLASS_IDS
    )
    if [list(d.items()) for d in fast_pr] != [list(d.items()) for d in reference_pr]:
        raise AssertionError(f"{name}: segment_precision_recall diverges from the reference")

    pairs: Dict[str, Tuple[Callable[[], object], Callable[[], object]]] = {
        "segment_ious": (
            lambda: _reference_segment_ious(prediction, ground_truth),
            lambda: segment_ious(prediction, ground_truth),
        ),
        "false_negative_segments": (
            lambda: _reference_false_negative_segments(prediction, ground_truth),
            lambda: false_negative_segments(prediction, ground_truth),
        ),
        "segment_precision_recall": (
            lambda: _reference_segment_precision_recall(
                prediction, ground_truth, class_ids=PR_CLASS_IDS
            ),
            lambda: segment_precision_recall(prediction, ground_truth, class_ids=PR_CLASS_IDS),
        ),
    }
    per_function: Dict[str, Dict[str, float]] = {}
    reference_total = 0.0
    fast_total = 0.0
    for fn_name, (reference_fn, fast_fn) in pairs.items():
        reference_seconds = _best_of(reference_fn, reference_repeats)
        fast_seconds = _best_of(fast_fn, fast_repeats)
        per_function[fn_name] = {
            "reference_seconds": reference_seconds,
            "vectorized_seconds": fast_seconds,
            "speedup": reference_seconds / fast_seconds if fast_seconds > 0 else float("inf"),
        }
        reference_total += reference_seconds
        fast_total += fast_seconds
    return {
        "case": name,
        "height": height,
        "width": width,
        "n_pred_segments": prediction.n_segments,
        "n_gt_segments": ground_truth.n_segments,
        "reference_seconds": reference_total,
        "vectorized_seconds": fast_total,
        "speedup": reference_total / fast_total if fast_total > 0 else float("inf"),
        "per_function": per_function,
    }


def run(smoke: bool = False) -> dict:
    """Run all cases and write the artifacts."""
    cases = SMOKE_CASES if smoke else FULL_CASES
    reference_repeats = 1 if smoke else 2
    fast_repeats = 3 if smoke else 5
    results: List[Dict[str, object]] = [
        run_case(name, height, width, cell, reference_repeats, fast_repeats)
        for name, height, width, cell in cases
    ]
    rows = ["segment matching: per-segment reference vs contingency-table fast path"]
    for result in results:
        rows.append(
            f"  {result['case']:<14s} pred segments {result['n_pred_segments']:4d}  "
            f"gt segments {result['n_gt_segments']:4d}  "
            f"reference {result['reference_seconds'] * 1e3:9.1f} ms  "
            f"vectorized {result['vectorized_seconds'] * 1e3:7.1f} ms  "
            f"speedup {result['speedup']:6.1f}x"
        )
        for fn_name, timing in result["per_function"].items():
            rows.append(
                f"    {fn_name:<26s} {timing['reference_seconds'] * 1e3:9.1f} ms -> "
                f"{timing['vectorized_seconds'] * 1e3:7.1f} ms  ({timing['speedup']:6.1f}x)"
            )
    write_artifact("segment_matching", rows)
    payload = {"mode": "smoke" if smoke else "full", "cases": results}
    write_bench_json("segment_matching", payload)
    return payload


def test_segment_matching_speedup():
    """Smoke-mode pytest entry: the fast path must beat the reference."""
    payload = run(smoke=True)
    for result in payload["cases"]:
        assert result["n_pred_segments"] >= 50
        assert result["speedup"] > 1.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small single case for CI (full mode runs 256x512 and 512x1024)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    if not args.smoke:
        # Acceptance criterion of the vectorization issue: >= 5x at 512x1024
        # with >= 200 segments.
        big = payload["cases"][-1]
        if big["n_pred_segments"] < 200:
            print(f"WARNING: only {big['n_pred_segments']} segments generated", file=sys.stderr)
        if big["speedup"] < 5.0:
            print(f"WARNING: speedup {big['speedup']:.1f}x below the 5x target", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
