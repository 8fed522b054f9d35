"""Trace export in the Chrome ``trace_event`` format.

:func:`trace_to_chrome` serialises a :class:`~repro.obs.trace.Tracer` as
the Chrome/Perfetto `trace_event` JSON array format: one ``"X"`` (complete)
event per span with microsecond ``ts``/``dur``, plus ``"M"`` (metadata)
``thread_name`` events so the per-thread tracks are labelled.  Records are
sorted by ``(start_s, span_id)`` so the export of a given trace is
order-stable regardless of commit order, and ``otherData`` carries the
format tag ``"repro-trace/1"``.  Load the file in ``chrome://tracing`` or
https://ui.perfetto.dev.

:func:`write_json` writes either payload via the store's atomic
temp-file+rename pattern, and :func:`validate_chrome_trace` is the schema
check the CI trace smoke (and tests) run against exported files.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List

#: Format tag stamped into the ``otherData`` of the Chrome trace export.
TRACE_FORMAT = "repro-trace/1"


def _sorted_records(tracer) -> List[Dict[str, object]]:
    return sorted(
        tracer.records(), key=lambda r: (r.get("start_s") or 0.0, str(r["span_id"]))
    )


def trace_to_chrome(tracer) -> Dict[str, object]:
    """Chrome ``trace_event`` payload (Perfetto/``chrome://tracing`` loadable)."""
    records = _sorted_records(tracer)
    thread_names = sorted({str(record.get("thread") or "main") for record in records})
    tids = {name: index + 1 for index, name in enumerate(thread_names)}
    events: List[Dict[str, object]] = []
    for name in thread_names:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tids[name],
                "args": {"name": name},
            }
        )
    for record in records:
        if record.get("start_s") is None or record.get("duration_s") is None:
            continue
        args = {"span_id": record["span_id"], "parent_id": record["parent_id"]}
        args.update(record.get("attrs") or {})
        events.append(
            {
                "name": str(record["name"]),
                "cat": "repro",
                "ph": "X",
                "ts": round(1e6 * float(record["start_s"]), 3),
                "dur": round(1e6 * float(record["duration_s"]), 3),
                "pid": 1,
                "tid": tids[str(record.get("thread") or "main")],
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": tracer.trace_id, "format": TRACE_FORMAT},
    }


def validate_chrome_trace(payload: Dict[str, object]) -> List[str]:
    """Schema problems of a Chrome trace payload ([] when valid).

    Checks the subset of the trace-event contract the exporter promises:
    a ``traceEvents`` list whose ``"X"`` events carry string names and
    non-negative numeric ``ts``/``dur`` plus ``pid``/``tid``, and whose
    phases are all known.  CI fails the trace smoke on any returned problem.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload.traceEvents must be a list"]
    if not any(isinstance(e, dict) and e.get("ph") == "X" for e in events):
        problems.append("no complete ('X') events — empty trace")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in {"X", "M", "B", "E", "i", "C"}:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing event name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key} must be an int")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"{where}: {key} must be a non-negative number")
    return problems


def write_json(path: str, payload: Dict[str, object]) -> str:
    """Write *payload* as JSON at *path* atomically (temp file + rename)."""
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=parent, prefix=".trace-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


__all__ = [
    "TRACE_FORMAT",
    "trace_to_chrome",
    "validate_chrome_trace",
    "write_json",
]
