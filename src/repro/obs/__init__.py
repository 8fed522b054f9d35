"""``repro.obs`` — the telemetry layer: tracing, metrics, exporters.

Strictly out-of-band observability for the experiment pipeline and the
scoring service: hierarchical spans (:mod:`repro.obs.trace`), a
thread-safe metrics registry (:mod:`repro.obs.metrics`), and JSON /
Chrome-``trace_event`` exporters (:mod:`repro.obs.export`).  Telemetry
never enters hashed store payloads or deterministic report output, and
the disabled default (:data:`NULL_TRACER`) is a shared no-op.
"""

from repro.obs.export import (
    TRACE_FORMAT,
    trace_to_chrome,
    validate_chrome_trace,
    write_json,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    format_span_tree,
    timings_view,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_FORMAT",
    "Tracer",
    "format_span_tree",
    "timings_view",
    "trace_to_chrome",
    "validate_chrome_trace",
    "write_json",
]
