"""Layer ledger: spans around the public functions of every layer.

The benchmark times layers from outside the program.  :meth:`Ledger.install`
replaces each wrapped callable (a module attribute, or a method on a class)
with a wrapper that opens a :class:`repro.obs.Tracer` span around the call;
:meth:`Ledger.uninstall` puts the originals back.  Functions that a module
imported by name (``from repro.core.segments import extract_segments``) are
wrapped in the importing module's namespace, so only the calls made from
that module are timed.

Stage spans come from the program itself: ``Runner(tracer=...)`` emits
``resolve``/``extract``/``evaluate`` under a ``run`` root, and a
``ScoringServer`` whose ``tracer`` attribute is set emits one ``request``
span per HTTP request.  Layer spans nest under those, which is what the
coverage figures (the share of each stage's wall time that layer spans
account for) are computed from.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import Tracer


@dataclass(frozen=True)
class Layer:
    """One timed layer: its span name, module, wrapped callables and effect.

    ``targets`` are ``(module, attribute path)`` pairs; a dotted path names
    a method (``"Class.method"``).  ``moves`` is the prediction written down
    before measuring: which end-to-end metric a change to this layer should
    move, on which workload, and where it should stay flat.
    """

    span: str
    module: str
    targets: Tuple[Tuple[str, str], ...]
    metrics: str
    moves: str


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "runner.resolve", "api.runner",
        (("repro.api.runner", "Runner.resolve"),),
        "resolve.s",
        "batch frames_per_s and latency_p50_ms (well under 1 ms a run); serve setup_s only",
    ),
    Layer(
        "scenes", "segmentation.scene",
        (("repro.segmentation.scene", "StreetSceneGenerator.generate"),),
        "scenes.s_per_frame",
        "frames_per_s on metaseg_sim_96x192; setup_s on the dump and serve workloads",
    ),
    Layer(
        "network", "segmentation.network",
        (("repro.segmentation.network", "SimulatedSegmentationNetwork.predict_probabilities"),),
        "network.s_per_frame",
        "frames_per_s on metaseg_sim_96x192; only setup_s on dump (tree writing) and serve (fit, client frames)",
    ),
    Layer(
        "io", "io",
        (
            ("repro.io.softmax", "SoftmaxDumpNetwork.predict_probabilities"),
            ("repro.io.cityscapes", "read_png_gray8"),
        ),
        "io.s_per_frame",
        "frames_per_s on metaseg_dump_512x1024 only (memmapped pages fault in under validation)",
    ),
    Layer(
        "validation", "utils.validation",
        (
            ("repro.core.metrics", "check_probability_field"),
            ("repro.core.metrics", "check_label_map"),
            ("repro.core.metrics", "check_same_shape"),
        ),
        "validation.s_per_frame",
        "frames_per_s on dump most, serve latency and frames_per_s next, sim least",
    ),
    Layer(
        "extract_full", "core.metrics",
        (("repro.core.metrics", "SegmentMetricsExtractor.extract_full"),),
        "extract.s_per_frame, features.self_s_per_frame",
        "frames_per_s on dump most, serve latency and frames_per_s next, sim least",
    ),
    Layer(
        "heatmaps", "core.heatmaps",
        (("repro.core.metrics", "fused_dispersion_heatmaps"),),
        "heatmaps.s_per_frame",
        "frames_per_s on dump most, serve latency and frames_per_s next, sim least",
    ),
    Layer(
        "segments", "core.segments",
        (("repro.core.metrics", "extract_segments"),),
        "segments.s_per_frame, segments.per_frame",
        "the ground-truth pass runs in batch only: a change to it must leave serve flat",
    ),
    Layer(
        "iou", "core.segments",
        (("repro.core.metrics", "segment_ious"),),
        "iou.s_per_frame",
        "batch frames_per_s only; serve scores without ground truth and must stay flat",
    ),
    Layer(
        "dataset", "core.dataset",
        (
            ("repro.core.dataset", "MetricsDataset.split"),
            ("repro.core.dataset", "MetricsDataset.concatenate"),
        ),
        "(table only)",
        "batch frames_per_s, mostly metaseg_sim_96x192",
    ),
    Layer(
        "fit", "core.meta_classification/core.meta_regression/models",
        (
            ("repro.core.meta_classification", "MetaClassifier.fit"),
            ("repro.core.meta_regression", "MetaRegressor.fit"),
        ),
        "fit.s_total, fit.calls",
        "frames_per_s on sim; barely dump; serve setup_s only",
    ),
    Layer(
        "predict", "core.meta_classification/core.meta_regression/models",
        (
            ("repro.core.meta_classification", "MetaClassifier.predict_proba"),
            ("repro.core.meta_regression", "MetaRegressor.predict"),
        ),
        "predict.s_total",
        "frames_per_s on sim; serve latency barely (two small matrix products per request)",
    ),
    Layer(
        "scoring", "evaluation",
        (
            ("repro.core.meta_classification", "accuracy"),
            ("repro.core.meta_classification", "auroc"),
            ("repro.core.meta_regression", "r2_score"),
            ("repro.core.meta_regression", "residual_std"),
        ),
        "(table only)",
        "frames_per_s on sim; nothing on serve",
    ),
    Layer(
        "decode", "serve.protocol",
        (("repro.serve.server", "parse_score_request"),),
        "serve.decode_ms",
        "serve latency, frames_per_s and peak_rss_mb; nothing in batch",
    ),
    Layer(
        "score", "serve.service",
        (("repro.serve.service", "ScoringService.score_frames"),),
        "serve.score_ms",
        "serve latency and frames_per_s; nothing in batch",
    ),
)

#: Stage spans the program emits; coverage is reported per stage.
BATCH_STAGES = ("resolve", "extract", "evaluate")
SERVE_STAGE = "request"

#: What each stage does outside any wrapped public function — printed as
#: the named unattributed remainder when coverage falls short.
REMAINDERS = {
    "resolve": "execution-backend construction and interpreter pauses (garbage collection)",
    "extract": "the backend's per-frame loop, list building and chunking",
    "evaluate": "protocol bookkeeping: split seeds, variant construction, mean_std",
    "request": "reading the request body and encoding/writing the JSON response "
               "(handler internals, no public function to wrap)",
}


def _resolve_owner(module_name: str, path: str):
    """(owner object, attribute name) of a dotted target inside a module."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _traced(fn, tracer: Tracer, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


class Ledger:
    """Installs and removes the layer wrappers around one shared tracer."""

    def __init__(self, layers: Sequence[Layer] = LAYERS) -> None:
        self.layers = tuple(layers)
        self.tracer = Tracer()
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for layer in self.layers:
            for module_name, path in layer.targets:
                owner, attribute = _resolve_owner(module_name, path)
                # Take the raw attribute so static methods keep their kind.
                raw = vars(owner)[attribute]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(_traced(raw.__func__, self.tracer, layer.span))
                else:
                    wrapped = _traced(raw, self.tracer, layer.span)
                self._saved.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)


# ---------------------------------------------------------------------------
@dataclass
class LayerRow:
    span: str
    module: str
    total_s: float
    count: int
    p50_ms: float
    self_s: float


@dataclass
class LayerTable:
    """Aggregated span records of a traced run: layers, stages, coverage."""

    rows: Dict[str, LayerRow]
    stage_total_s: Dict[str, float]
    stage_self_s: Dict[str, float]
    stage_count: Dict[str, int]

    def total(self, span: str) -> float:
        row = self.rows.get(span)
        return row.total_s if row else 0.0

    def count(self, span: str) -> int:
        row = self.rows.get(span)
        return row.count if row else 0

    def self_total(self, span: str) -> float:
        row = self.rows.get(span)
        return row.self_s if row else 0.0

    def mean_ms(self, span: str) -> float:
        count = self.count(span)
        return 1e3 * self.total(span) / count if count else 0.0

    @property
    def coverage(self) -> Dict[str, float]:
        """Per stage: the share of its wall time inside its child layer spans."""
        return {
            stage: 1.0 - self.stage_self_s[stage] / total
            for stage, total in self.stage_total_s.items()
            if total > 0
        }

    def overall_coverage(self) -> float:
        """The same share over all stages together (time-weighted)."""
        total = sum(self.stage_total_s.values())
        return 1.0 - sum(self.stage_self_s.values()) / total if total > 0 else 0.0


def _is_stage(record: Dict[str, object], stages: Sequence[str]) -> bool:
    if record["name"] not in stages:
        return False
    # Only POST requests are scoring requests; GET /metrics is bookkeeping.
    if record["name"] == SERVE_STAGE:
        return (record.get("attrs") or {}).get("method") == "POST"
    return True


def build_table(
    records: List[Dict[str, object]], stages: Sequence[str], layers: Sequence[Layer] = LAYERS
) -> LayerTable:
    """Totals, counts, p50 and self time per layer, plus per-stage coverage.

    A span's self time is its duration minus its children's; children of one
    span run sequentially on its thread, so the subtraction is exact.  A
    stage's coverage is the share of its wall time spent inside its direct
    child layer spans, which is one minus the stage's own self time over
    its duration.
    """
    child_s: Dict[str, float] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + float(record["duration_s"])
    durations: Dict[str, List[float]] = {}
    self_s: Dict[str, float] = {}
    stage_total: Dict[str, float] = {}
    stage_self: Dict[str, float] = {}
    stage_count: Dict[str, int] = {}
    for record in records:
        name = str(record["name"])
        duration = float(record["duration_s"])
        own = duration - child_s.get(record["span_id"], 0.0)
        if _is_stage(record, stages):
            stage_total[name] = stage_total.get(name, 0.0) + duration
            stage_self[name] = stage_self.get(name, 0.0) + own
            stage_count[name] = stage_count.get(name, 0) + 1
        durations.setdefault(name, []).append(duration)
        self_s[name] = self_s.get(name, 0.0) + own
    rows = {}
    for layer in layers:
        values = durations.get(layer.span)
        if not values:
            continue
        rows[layer.span] = LayerRow(
            span=layer.span,
            module=layer.module,
            total_s=sum(values),
            count=len(values),
            p50_ms=1e3 * statistics.median(values),
            self_s=self_s[layer.span],
        )
    return LayerTable(rows, stage_total, stage_self, stage_count)


def format_table(table: LayerTable, frames: int, layers: Sequence[Layer] = LAYERS) -> List[str]:
    """The printable layer table, coverage lines and the layer → metric map."""
    lines = [
        f"{'layer':<15} {'module':<22} {'total_s':>9} {'count':>6} "
        f"{'p50_ms':>9} {'self_s':>9} {'ms/frame':>9}"
    ]
    for layer in layers:
        row = table.rows.get(layer.span)
        if row is None:
            lines.append(f"{layer.span:<15} {layer.module[:22]:<22} {'(not run)':>9}")
            continue
        per_frame = 1e3 * row.total_s / frames if frames else 0.0
        lines.append(
            f"{row.span:<15} {row.module[:22]:<22} {row.total_s:9.4f} {row.count:6d} "
            f"{row.p50_ms:9.3f} {row.self_s:9.4f} {per_frame:9.3f}"
        )
    for stage, share in table.coverage.items():
        total = table.stage_total_s[stage]
        remainder_ms = 1e3 * total * (1.0 - share) / max(1, table.stage_count[stage])
        line = f"coverage {stage}: {100 * share:.1f}% of {total:.4f} s"
        if share < 0.95:
            line += f"; unattributed {remainder_ms:.3f} ms per {stage}: {REMAINDERS[stage]}"
        lines.append(line)
    lines.append("layer -> end-to-end prediction:")
    for layer in layers:
        lines.append(f"  {layer.span} ({layer.module}) [{layer.metrics}]: {layer.moves}")
    return lines


def table_payload(table: LayerTable, frames: int) -> Dict[str, object]:
    """JSON-ready form of a layer table (written next to the Chrome trace)."""
    return {
        "frames": frames,
        "layers": {
            span: {
                "module": row.module,
                "total_s": row.total_s,
                "count": row.count,
                "p50_ms": row.p50_ms,
                "self_s": row.self_s,
            }
            for span, row in table.rows.items()
        },
        "stages": {
            stage: {
                "total_s": table.stage_total_s[stage],
                "count": table.stage_count[stage],
                "coverage": table.coverage.get(stage),
            }
            for stage in table.stage_total_s
        },
    }


def overhead_pct(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Tracing overhead: traced median over untraced median, in percent."""
    if not untraced or not traced:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)


def layer_metrics(
    table: LayerTable, frames: int, ops: int, serve: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from a traced run.

    ``frames`` and ``ops`` are the frames and operations (runs or requests)
    that ran traced; ``serve`` carries the figures read from the server's
    ``/metrics`` and the client (zero for the batch workloads).
    """
    frames = max(1, frames)
    ops = max(1, ops)
    serve = serve or {}
    return {
        "network.s_per_frame": table.total("network") / frames,
        "io.s_per_frame": table.total("io") / frames,
        "scenes.s_per_frame": table.total("scenes") / frames,
        "validation.s_per_frame": table.total("validation") / frames,
        "heatmaps.s_per_frame": table.total("heatmaps") / frames,
        "extract.s_per_frame": table.total("extract_full") / frames,
        "features.self_s_per_frame": table.self_total("extract_full") / frames,
        "segments.s_per_frame": table.total("segments") / frames,
        "iou.s_per_frame": table.total("iou") / frames,
        "fit.s_total": table.total("fit") / ops,
        "fit.calls": table.count("fit") / ops,
        "predict.s_total": table.total("predict") / ops,
        "evaluate.s": table.stage_total_s.get("evaluate", 0.0) / ops,
        "resolve.s": table.stage_total_s.get("resolve", 0.0) / ops,
        "serve.decode_ms": table.mean_ms("decode"),
        "serve.score_ms": table.mean_ms("score"),
        "serve.server_ms": serve.get("server_ms", 0.0),
        "serve.wait_transport_ms": serve.get("wait_transport_ms", 0.0),
        "serve.rejected": serve.get("rejected", 0.0),
        "coverage.pct": 100.0 * table.overall_coverage(),
    }
