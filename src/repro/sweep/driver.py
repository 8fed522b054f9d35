"""The sweep driver: expand a grid, run every point, summarise and diff.

:func:`run_sweep` feeds every expanded :class:`~repro.sweep.config.SweepPoint`
through one :class:`~repro.api.runner.Runner` (any execution backend) with
result caching on by default, and returns a :class:`SweepResult` holding the
per-point reports, cache bookkeeping and the structural diffs of every
point's deterministic report payload against point 0 (the baseline).

Caching makes sweeps cheap twice over: a re-run of the whole sweep is served
entirely from the whole-report cache, and *within* a cold sweep the
``process`` backend reuses stage-1 shards across points whenever the varied
fields cannot influence them (e.g. a meta-model sweep recomputes extraction
exactly once).

Points run in order; each point's stage-1 shards run in parallel on the
point's own backend.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.runner import ExperimentReport, Runner
from repro.obs import NULL_TRACER
from repro.store import ResultStore
from repro.sweep.config import SweepConfig, SweepPoint
from repro.sweep.diff import DiffEntry, structural_diff, summarize_diff


@dataclass
class SweepPointResult:
    """One executed sweep point: the report plus run bookkeeping."""

    point: SweepPoint
    report: ExperimentReport
    seconds: float

    @property
    def cache_hit(self) -> bool:
        return bool(self.report.cache.get("hit"))

    @property
    def shard_cache(self) -> Dict[str, int]:
        return dict(self.report.cache.get("shards", {}))


@dataclass
class SweepResult:
    """All reports of one sweep run, with summaries and baseline diffs."""

    sweep: SweepConfig
    points: List[SweepPointResult] = field(default_factory=list)
    store_root: Optional[str] = None
    seconds: float = 0.0
    _diffs: Optional[Dict[str, List[DiffEntry]]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------ ---
    @property
    def cache_hits(self) -> int:
        return sum(1 for point in self.points if point.cache_hit)

    def diffs(self) -> Dict[str, List[DiffEntry]]:
        """Structural diff of every point's report payload vs. point 0.

        Keyed by point label; the baseline itself is omitted.  Report
        payloads are the deterministic :meth:`ExperimentReport.to_dict`
        views (no timings, no cache bookkeeping), so every entry is a real
        effect of the swept fields — on the config echo or on the numbers.
        Memoised: summary and serialisation both consume it.
        """
        if not self.points:
            return {}
        if self._diffs is None:
            baseline = self.points[0].report.to_dict()
            self._diffs = {
                result.point.label: structural_diff(baseline, result.report.to_dict())
                for result in self.points[1:]
            }
        return self._diffs

    def summary_rows(self) -> List[str]:
        """Human-readable summary: per-point status plus baseline diffs."""
        sweep_name = self.sweep.name or "(unnamed)"
        rows = [
            f"sweep: {sweep_name}  points: {len(self.points)}  "
            f"grid fields: {', '.join(self.sweep.grid) or '(none)'}",
            f"cache: {self.store_root or 'disabled'}",
        ]
        diffs = self.diffs()
        for result in self.points:
            status = "cached" if result.cache_hit else "computed"
            shards = result.shard_cache
            shard_note = ""
            if shards.get("hits") or shards.get("misses"):
                shard_note = (
                    f", shards {shards.get('hits', 0)} cached"
                    f"/{shards.get('misses', 0)} computed"
                )
            rows.append(
                f"{result.point.label}  [{status}{shard_note}]  "
                f"{result.seconds:.2f}s"
            )
            if result.point.index == 0:
                rows.append("  (baseline for diffs)")
                continue
            entries = diffs.get(result.point.label, [])
            if not entries:
                rows.append("  identical to baseline")
            else:
                rows.extend("  " + line for line in summarize_diff(entries))
        rows.append(
            f"cache hits: {self.cache_hits}/{len(self.points)}  "
            f"total: {self.seconds:.2f}s"
        )
        return rows

    # ------------------------------------------------------- (de)serialisation
    def to_dict(self, include_run_info: bool = False) -> Dict[str, object]:
        """Plain-dict view of the sweep outcome.

        Without *include_run_info* the payload is fully deterministic (grid
        echo, per-point overrides + report payloads, baseline diffs): two
        runs of the same sweep serialise bitwise identically whether they
        were computed or served from cache.  Run info (wall-clock, cache
        hits, store root) is opt-in, mirroring the report-timings contract.
        """
        diffs = self.diffs()
        out: Dict[str, object] = {
            "name": self.sweep.name,
            "grid": self.sweep.grid,
            "n_points": len(self.points),
            "points": [
                {
                    "index": result.point.index,
                    "label": result.point.label,
                    "overrides": result.point.overrides,
                    "report": result.report.to_dict(),
                }
                for result in self.points
            ],
            "diffs_vs_baseline": {
                result.point.label: diffs[result.point.label]
                for result in self.points[1:]
            },
        }
        if include_run_info:
            out["run"] = {
                "store_root": self.store_root,
                "seconds": self.seconds,
                "cache_hits": self.cache_hits,
                "points": [
                    {
                        "label": result.point.label,
                        "seconds": result.seconds,
                        "cache_hit": result.cache_hit,
                        "shard_cache": result.shard_cache,
                    }
                    for result in self.points
                ],
            }
        return out

    def to_json(self, indent: int = 2, include_run_info: bool = False) -> str:
        """Deterministic JSON serialisation (see :meth:`to_dict`)."""
        return json.dumps(
            self.to_dict(include_run_info=include_run_info),
            indent=indent,
            sort_keys=True,
        )


def run_sweep(
    sweep: SweepConfig,
    store: Optional[ResultStore] = None,
    no_cache: bool = False,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    tracer: Optional[object] = None,
) -> SweepResult:
    """Execute every point of a sweep and return the collected result.

    ``backend`` / ``workers`` override the execution section
    of *every* point (they are bit-neutral, so the reports are unaffected).
    Caching is on by default — ``store`` picks the store (default:
    :class:`ResultStore` at the standard root, ``$REPRO_CACHE_DIR``
    override) and ``no_cache=True`` disables it entirely.  ``tracer``
    (a :class:`repro.obs.Tracer`; default: disabled) collects one span per
    sweep point under a ``sweep`` root, with the Runner's stage spans as
    children — telemetry only, the reports are unaffected.
    """
    sweep.validate()
    if no_cache:
        store = None
    elif store is None:
        store = ResultStore()
    tracer = NULL_TRACER if tracer is None else tracer
    runner = Runner(store=store, tracer=tracer)
    result = SweepResult(
        sweep=sweep, store_root=None if store is None else str(store.root)
    )
    # Expand eagerly: an invalid grid cell anywhere must fail before any
    # point computes, not after earlier points burned their compute.
    points = list(sweep.points())
    sweep_start = time.perf_counter()  # repro: allow[det-wallclock] -- per-point run info (seconds), reported beside the deterministic result
    with tracer.span("sweep", sweep_name=sweep.name, n_points=len(points)):
        for point in points:
            config = point.config
            if backend is not None:
                config.execution.backend = backend
            if workers is not None:
                config.execution.workers = workers
            config.validate()
        for point in points:
            start = time.perf_counter()  # repro: allow[det-wallclock] -- per-point run info (seconds), reported beside the deterministic result
            with tracer.span("point", label=point.label, index=point.index) as span:
                report = runner.run(point.config)
                span.set(cache_hit=bool(report.cache.get("hit")))
            result.points.append(
                SweepPointResult(
                    point=point, report=report, seconds=time.perf_counter() - start  # repro: allow[det-wallclock] -- per-point run info (seconds), reported beside the deterministic result
                )
            )
    result.seconds = time.perf_counter() - sweep_start  # repro: allow[det-wallclock] -- per-point run info (seconds), reported beside the deterministic result
    return result
