"""Benchmark — sparse contingency-table tracking vs per-segment masks.

Times the vectorised :func:`match_segments` against the retained
``_reference_match_segments`` per-segment-mask implementation
(``tests/reference/tracking.py``) on synthetic video frame pairs with
hundreds of moving segments, and a full
:class:`SegmentTracker` run over a short sequence against a tracker driven by
the reference matcher.  Bitwise parity (identical match dicts including
insertion order, identical track assignments and histories) is asserted on
every run; the acceptance gate of the perf issue — >= 5x at 512x1024 with
>= 100 segments per frame — is enforced by the exit code in full mode.

Invocation (segment decomposition is not part of the timed region):

    PYTHONPATH=src:tests python benchmarks/bench_tracking.py           # full + gate
    PYTHONPATH=src:tests python benchmarks/bench_tracking.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from _bench_common import write_artifact, write_bench_json, write_trajectory_json

from reference.tracking import _reference_match_segments
from repro.core.segments import Segmentation, extract_segments
from repro.timedynamic.tracking import SegmentTracker, match_segments

#: (name, height, width, cell) benchmark cases; the cell size keeps each frame
#: at roughly 300 segments (>= 100 required by the acceptance criterion).
FULL_CASES = (
    ("256x512", 256, 512, 16),
    ("512x1024", 512, 1024, 32),
)
SMOKE_CASES = (("128x256_smoke", 128, 256, 16),)

N_CLASSES = 8
N_TRACKER_FRAMES = 4


def make_frames(height: int, width: int, cell: int, n_frames: int, seed: int = 0) -> List[np.ndarray]:
    """Synthetic frame sequence: chunky segments under global motion + clutter."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, N_CLASSES, size=(height // cell, width // cell))
    base = np.kron(grid, np.ones((cell, cell), dtype=np.int64)).astype(np.int64)
    frames = []
    for frame_index in range(n_frames):
        frame = np.roll(base, (frame_index * 3, -frame_index * 5), axis=(0, 1)).copy()
        for _ in range(8):
            r0 = int(rng.integers(0, height - cell))
            c0 = int(rng.integers(0, width - cell))
            frame[r0:r0 + cell // 2, c0:c0 + cell // 2] = int(rng.integers(0, N_CLASSES))
        frames.append(frame)
    return frames


def make_shifts(segmentation: Segmentation, seed: int = 1) -> Dict[int, Tuple[float, float]]:
    """Expected-displacement dict mixing zero, float and half-integer shifts."""
    rng = np.random.default_rng(seed)
    shifts: Dict[int, Tuple[float, float]] = {}
    for segment_id in segmentation.segment_ids().tolist():
        u = rng.uniform()
        if u < 0.3:
            continue
        if u < 0.5:
            shifts[segment_id] = (3.0, -5.0)
        elif u < 0.7:
            shifts[segment_id] = (float(rng.uniform(-4.0, 4.0)), float(rng.uniform(-7.0, 7.0)))
        else:
            shifts[segment_id] = (2.5, -4.5)
    return shifts


def _time_best(match_fn, previous, current, shifts, repeats: int) -> float:
    """Best-of timing of one frame-pair match (decomposition not timed)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        match_fn(previous, current, shifts)
        best = min(best, time.perf_counter() - start)
    return best


def run_case(
    name: str, height: int, width: int, cell: int, reference_repeats: int, fast_repeats: int
) -> Dict[str, object]:
    """Time and parity-check one synthetic case."""
    frames = make_frames(height, width, cell, N_TRACKER_FRAMES)
    previous = extract_segments(frames[0])
    current = extract_segments(frames[1])
    shifts = make_shifts(previous)

    # Bitwise parity of the pairwise matcher (values and insertion order).
    fast_matches = match_segments(previous, current, shifts)
    reference_matches = _reference_match_segments(previous, current, shifts)
    if fast_matches != reference_matches or list(fast_matches) != list(reference_matches):
        raise AssertionError(f"{name}: match dicts diverge from the reference")

    # Bitwise parity of full tracker runs (assignments and histories).
    fast_tracker = SegmentTracker()
    reference_tracker = SegmentTracker(match_fn=_reference_match_segments)
    for frame in frames:
        fast_assignment = fast_tracker.update(extract_segments(frame))
        reference_assignment = reference_tracker.update(extract_segments(frame))
        if fast_assignment != reference_assignment:
            raise AssertionError(f"{name}: track assignments diverge from the reference")
    for track_id, track in fast_tracker.tracks.items():
        reference_track = reference_tracker.tracks[track_id]
        if (
            track.segment_history != reference_track.segment_history
            or track.centroid_history != reference_track.centroid_history
        ):
            raise AssertionError(f"{name}: track histories diverge from the reference")

    reference_seconds = _time_best(
        _reference_match_segments, previous, current, shifts, reference_repeats
    )
    fast_seconds = _time_best(match_segments, previous, current, shifts, fast_repeats)
    return {
        "case": name,
        "height": height,
        "width": width,
        "n_prev_segments": previous.n_segments,
        "n_curr_segments": current.n_segments,
        "n_matches": len(fast_matches),
        "reference_seconds": reference_seconds,
        "vectorized_seconds": fast_seconds,
        "speedup": reference_seconds / fast_seconds if fast_seconds > 0 else float("inf"),
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
    rows = ["segment tracking: per-segment-mask reference vs sparse contingency fast path"]
    for result in results:
        rows.append(
            f"  {result['case']:<14s} segments {result['n_prev_segments']:4d}/"
            f"{result['n_curr_segments']:<4d} matches {result['n_matches']:4d}  "
            f"reference {result['reference_seconds'] * 1e3:9.1f} ms  "
            f"vectorized {result['vectorized_seconds'] * 1e3:7.1f} ms  "
            f"speedup {result['speedup']:6.1f}x"
        )
    write_artifact("tracking", rows)
    payload = {"mode": "smoke" if smoke else "full", "cases": results}
    write_bench_json("tracking", payload)
    if not smoke:
        write_trajectory_json("tracking", payload)
    return payload


def test_tracking_speedup():
    """Smoke-mode pytest entry: the fast path must beat the reference."""
    payload = run(smoke=True)
    for result in payload["cases"]:
        assert result["n_prev_segments"] >= 50
        assert result["speedup"] > 1.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small single case for CI (full mode runs 256x512 and 512x1024)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    # Smoke runs (CI) gate parity (asserted inside run) plus a sanity
    # speedup; full runs enforce the acceptance criterion of the perf issue:
    # >= 5x at 512x1024 with >= 100 segments/frame.
    min_segments, min_speedup = (50, 1.0) if args.smoke else (100, 5.0)
    big = payload["cases"][-1]
    if big["n_prev_segments"] < min_segments:
        print(f"WARNING: only {big['n_prev_segments']} segments generated", file=sys.stderr)
        return 1
    if big["speedup"] < min_speedup:
        print(
            f"WARNING: speedup {big['speedup']:.1f}x below the {min_speedup:.0f}x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
