"""Hierarchical tracing: spans, the Tracer, and the derived timings view.

A :class:`Tracer` records **spans** — named, attributed wall-clock intervals
arranged in a tree.  ``tracer.span("stage", **attrs)`` returns a context
manager; entering pushes the span onto a per-thread stack (``threading.local``)
so nested ``with`` blocks form parent/child edges without any explicit
plumbing, and exiting commits an immutable record ``{name, span_id,
parent_id, start_s, duration_s, thread, attrs}`` to the tracer under a lock.

Across process boundaries the context travels by value:
:meth:`Tracer.current_context` yields a picklable ``{"trace_id",
"parent_span_id"}`` dict that a shard spec can embed; the worker builds its
own :class:`Tracer` with an id prefix, runs under a span parented to the
remote id, and ships :meth:`Tracer.export` back for the parent to
:meth:`Tracer.merge` in shard order (start times are re-based via the wall
epoch each export carries).

Telemetry is strictly out-of-band: span ids, timings and attributes never
enter hashed store payloads or deterministic report output — the same
contract as ``ExperimentReport.timings``.  The zero-cost default is
:data:`NULL_TRACER`, whose ``span()`` hands out one shared no-op context
manager and records nothing.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional

#: Process-wide trace-id sequence (``next()`` on ``itertools.count`` is
#: atomic in CPython; the id only needs to be unique, not secret).
_TRACE_IDS = itertools.count(1)


class Span:
    """One traced interval; use as a context manager (``with tracer.span(..)``).

    The record dict is the single source of truth: ``__enter__`` stamps the
    start (relative to the tracer's epoch) and pushes the span onto the
    calling thread's stack, ``__exit__`` stamps the duration, pops, and
    commits the record to the tracer.  :meth:`set` attaches extra attributes
    mid-flight (e.g. a count known only after the work ran).
    """

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self._record: Dict[str, object] = {
            "name": str(name),
            "span_id": span_id,
            "parent_id": parent_id,
            "start_s": None,
            "duration_s": None,
            "thread": None,
            "attrs": dict(attrs),
        }

    # ------------------------------------------------------------------ ---
    @property
    def name(self) -> str:
        return self._record["name"]

    @property
    def span_id(self) -> Optional[str]:
        return self._record["span_id"]

    @property
    def parent_id(self) -> Optional[str]:
        return self._record["parent_id"]

    @property
    def duration_s(self) -> Optional[float]:
        """Seconds between enter and exit; ``None`` while still open."""
        return self._record["duration_s"]

    def set(self, **attrs: object) -> "Span":
        """Attach extra attributes to the span (JSON-serialisable values)."""
        self._record["attrs"].update(attrs)
        return self

    # ------------------------------------------------------------------ ---
    def __enter__(self) -> "Span":
        record = self._record
        record["thread"] = threading.current_thread().name
        self._tracer._push(self)
        record["start_s"] = time.perf_counter() - self._tracer.epoch_s  # repro: allow[det-wallclock] -- span timing telemetry, never part of deterministic payloads
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._record
        record["duration_s"] = (
            time.perf_counter() - self._tracer.epoch_s - record["start_s"]  # repro: allow[det-wallclock] -- span timing telemetry, never part of deterministic payloads
        )
        if exc_type is not None:
            record["attrs"].setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        self._tracer._commit(record)
        return False

    def __repr__(self) -> str:
        return f"Span(name={self.name!r}, span_id={self.span_id!r})"


class _NullSpan:
    """Shared no-op span: the entire cost of tracing when it is disabled."""

    __slots__ = ()

    span_id = None
    parent_id = None
    duration_s = None
    name = ""

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: every ``span()`` is the same shared no-op.

    ``enabled`` is ``False`` so instrumented seams can skip optional work
    (context embedding, merging, exporting) entirely.
    """

    enabled = False

    def span(self, name: str, parent_id: Optional[str] = None, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def current_context(self) -> Optional[Dict[str, str]]:
        return None

    def records(self) -> List[Dict[str, object]]:
        return []

    def export(self) -> Dict[str, object]:
        return {"trace_id": "", "wall_epoch": 0.0, "records": []}

    def merge(self, export: Dict[str, object]) -> None:
        return None

    def __repr__(self) -> str:
        return "NullTracer()"


#: The process-wide disabled tracer (safe to share: it holds no state).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans for one trace; thread-safe, cheap, export-ready.

    Parameters
    ----------
    trace_id:
        Identity shared by every span of the trace; generated when omitted.
        Workers continuing a parent trace pass the parent's id through.
    id_prefix:
        Prefix for every allocated span id — shard workers get a distinct
        prefix (e.g. ``"4.2."``) so merged timelines never collide.
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None, id_prefix: str = "") -> None:
        self._lock = threading.Lock()
        self._records: List[Dict[str, object]] = []
        self._local = threading.local()
        self._counter = 0
        self._id_prefix = str(id_prefix)
        self.trace_id = trace_id or f"trace-{os.getpid()}-{next(_TRACE_IDS)}"
        #: Reference instants for span starts: ``epoch_s`` is the monotonic
        #: zero of every ``start_s``; ``wall_epoch`` anchors it to wall time
        #: so exports from other processes can be re-based on merge.
        self.epoch_s = time.perf_counter()  # repro: allow[det-wallclock] -- trace epoch telemetry, never part of deterministic payloads
        self.wall_epoch = time.time()  # repro: allow[det-wallclock] -- trace epoch telemetry, never part of deterministic payloads

    # ------------------------------------------------------------- span API
    def span(self, name: str, parent_id: Optional[str] = None, **attrs: object) -> Span:
        """A new span; parent defaults to the calling thread's current span."""
        if parent_id is None:
            top = self._stack_top()
            parent_id = top.span_id if top is not None else None
        with self._lock:
            self._counter += 1
            span_id = f"{self._id_prefix}{self._counter}"
        return Span(self, name, span_id, parent_id, attrs)

    def current_context(self) -> Optional[Dict[str, str]]:
        """Picklable continuation context of the calling thread's open span.

        ``None`` when no span is open — callers embed the dict into work
        specs that cross process (or machine) boundaries.
        """
        top = self._stack_top()
        if top is None:
            return None
        return {"trace_id": self.trace_id, "parent_span_id": top.span_id}

    # ------------------------------------------------------------ internals
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _stack_top(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if span in stack:
            # Identity removal tolerates exotic exit orders; the common case
            # pops the top.
            stack.remove(span)

    def _commit(self, record: Dict[str, object]) -> None:
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------ consumers
    def records(self) -> List[Dict[str, object]]:
        """Copies of every committed span record (commit order)."""
        with self._lock:
            return [dict(record, attrs=dict(record["attrs"])) for record in self._records]

    def export(self) -> Dict[str, object]:
        """Picklable snapshot for shipping a child timeline to a parent."""
        return {
            "trace_id": self.trace_id,
            "wall_epoch": self.wall_epoch,
            "records": self.records(),
        }

    def merge(self, export: Dict[str, object]) -> None:
        """Fold a child :meth:`export` in, re-basing starts onto this epoch.

        Child ``start_s`` values are relative to the child's own monotonic
        epoch; the wall epochs of both tracers anchor the shift.
        """
        shift = float(export.get("wall_epoch", 0.0)) - self.wall_epoch
        merged = []
        for record in export.get("records", []):
            record = dict(record, attrs=dict(record.get("attrs", {})))
            if record.get("start_s") is not None:
                record["start_s"] = float(record["start_s"]) + shift
            merged.append(record)
        with self._lock:
            self._records.extend(merged)

    def __repr__(self) -> str:
        return f"Tracer(trace_id={self.trace_id!r}, n_records={len(self._records)})"


# --------------------------------------------------------------------------
def timings_view(
    records: List[Dict[str, object]], root_id: Optional[str]
) -> Dict[str, float]:
    """The backward-compatible flat timings dict derived from a span subtree.

    Children of the root span keep their bare stage names (``resolve``,
    ``extract``, ``evaluate`` — the pre-telemetry keys), deeper spans get
    dotted paths (``extract.shard3``), and the root itself becomes
    ``total``.  Spans sharing one path add up under it (the decision kind's
    walk and its table shaping both run as ``evaluate``).  Spans outside the
    subtree (other runs sharing the tracer) are ignored.
    """
    out: Dict[str, float] = {}
    if root_id is None:
        return out
    by_id = {record["span_id"]: record for record in records}
    if root_id not in by_id:
        return out
    for record in records:
        if record.get("duration_s") is None:
            continue
        path: List[str] = []
        current: Optional[Dict[str, object]] = record
        reached_root = False
        while current is not None:
            if current["span_id"] == root_id:
                reached_root = True
                break
            path.append(str(current["name"]))
            current = by_id.get(current.get("parent_id"))
        if not reached_root or not path:
            continue
        key = ".".join(reversed(path))
        out[key] = out.get(key, 0.0) + float(record["duration_s"])
    root = by_id[root_id]
    if root.get("duration_s") is not None:
        out["total"] = float(root["duration_s"])
    return out


def format_span_tree(records: List[Dict[str, object]]) -> List[str]:
    """Human-readable indented rendering of a span forest (CLI ``--trace``).

    Children print under their parents sorted by start time; durations in
    milliseconds.
    """
    by_parent: Dict[Optional[str], List[Dict[str, object]]] = {}
    ids = {record["span_id"] for record in records}
    for record in records:
        parent = record.get("parent_id")
        if parent not in ids:
            parent = None  # Orphans (remote parents) print at top level.
        by_parent.setdefault(parent, []).append(record)
    for children in by_parent.values():
        children.sort(key=lambda r: (r.get("start_s") or 0.0, str(r["span_id"])))

    rows: List[str] = []

    def render(record: Dict[str, object], depth: int) -> None:
        duration = record.get("duration_s")
        duration_text = f"{1e3 * duration:9.2f} ms" if duration is not None else "   (open)  "
        attrs = record.get("attrs") or {}
        attr_text = "".join(
            f"  {key}={attrs[key]}" for key in sorted(attrs)
        )
        rows.append(f"{'  ' * depth}{duration_text}  {record['name']}{attr_text}")
        for child in by_parent.get(record["span_id"], []):
            render(child, depth + 1)

    for root in by_parent.get(None, []):
        render(root, 0)
    return rows


__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "format_span_tree",
    "timings_view",
]
