"""Tests for the repro.obs telemetry layer.

The three ISSUE-mandated gates plus unit coverage of the package itself:

* concurrent metrics hammering — N threads x M increments totals exactly;
* span-context propagation across the ``process`` backend — shard spans
  re-parent under the parent's ``extract`` span and surface as dotted
  ``extract.shardN`` timing keys;
* the determinism gate — a traced run's ``to_json`` is bitwise identical
  to an untraced run's (telemetry never leaks into deterministic output).
"""

import json
import threading
from pathlib import Path

import pytest

from repro.api.runner import Runner
from repro.obs import (
    DEFAULT_BUCKETS,
    METRICS,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    format_span_tree,
    timings_view,
    trace_to_chrome,
    validate_chrome_trace,
    write_json,
)

EXAMPLE_CONFIGS = Path(__file__).resolve().parent.parent / "examples" / "configs"

TINY_HEIGHT = 48
TINY_WIDTH = 96


def metaseg_payload(seed: int = 9, **execution) -> dict:
    payload = {
        "kind": "metaseg", "seed": seed,
        "data": {"dataset": "cityscapes_like", "n_val": 4,
                 "height": TINY_HEIGHT, "width": TINY_WIDTH},
        "evaluation": {"n_runs": 2},
    }
    if execution:
        payload["execution"] = execution
    return payload


# ------------------------------------------------------------------ spans --
class TestSpans:
    def test_nesting_builds_parent_child_edges(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        records = {record["name"]: record for record in tracer.records()}
        assert records["inner"]["parent_id"] == outer.span_id
        assert records["outer"]["parent_id"] is None
        assert records["inner"]["duration_s"] >= 0.0
        assert records["outer"]["duration_s"] >= records["inner"]["duration_s"]
        assert inner.span_id != outer.span_id

    def test_attrs_at_open_and_mid_flight(self):
        tracer = Tracer()
        with tracer.span("stage", kind="metaseg") as span:
            span.set(n_items=7)
        (record,) = tracer.records()
        assert record["attrs"] == {"kind": "metaseg", "n_items": 7}

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (record,) = tracer.records()
        assert record["attrs"]["error"] == "ValueError"
        assert record["duration_s"] is not None
        # The stack unwound: a new span is a root again.
        with tracer.span("after"):
            pass
        after = [r for r in tracer.records() if r["name"] == "after"][0]
        assert after["parent_id"] is None

    def test_sibling_threads_do_not_nest_into_each_other(self):
        tracer = Tracer()
        ready = threading.Barrier(2)

        def worker(name):
            ready.wait(timeout=30)
            with tracer.span(name):
                pass

        threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        records = tracer.records()
        assert len(records) == 2
        assert all(record["parent_id"] is None for record in records)

    def test_current_context_is_picklable_continuation(self):
        tracer = Tracer()
        assert tracer.current_context() is None
        with tracer.span("root") as root:
            context = tracer.current_context()
        assert context == {"trace_id": tracer.trace_id, "parent_span_id": root.span_id}
        json.dumps(context)  # picklable/serialisable by construction

    def test_merge_rebases_child_starts_onto_parent_epoch(self):
        parent = Tracer()
        child = Tracer(trace_id=parent.trace_id, id_prefix="1.0.")
        child.wall_epoch = parent.wall_epoch + 5.0  # simulate a later process
        with child.span("shard0", parent_id="1"):
            pass
        child_start = child.records()[0]["start_s"]
        parent.merge(child.export())
        (merged,) = parent.records()
        assert merged["span_id"] == "1.0.1"
        assert merged["start_s"] == pytest.approx(child_start + 5.0)
        assert merged["parent_id"] == "1"

    def test_timings_view_bare_dotted_total(self):
        tracer = Tracer()
        with tracer.span("run") as root:
            with tracer.span("extract"):
                with tracer.span("shard0"):
                    pass
            with tracer.span("evaluate"):
                pass
        timings = timings_view(tracer.records(), root.span_id)
        assert set(timings) == {"extract", "extract.shard0", "evaluate", "total"}
        assert all(value >= 0.0 for value in timings.values())
        assert timings_view(tracer.records(), None) == {}
        assert timings_view(tracer.records(), "missing") == {}

    def test_timings_view_sums_spans_sharing_a_path(self):
        tracer = Tracer()
        with tracer.span("run") as root:
            with tracer.span("evaluate"):
                pass
            with tracer.span("evaluate"):
                pass
        records = tracer.records()
        timings = timings_view(records, root.span_id)
        durations = [r["duration_s"] for r in records if r["name"] == "evaluate"]
        assert set(timings) == {"evaluate", "total"}
        assert timings["evaluate"] == sum(durations)

    def test_timings_view_ignores_spans_outside_subtree(self):
        tracer = Tracer()
        with tracer.span("other"):
            pass
        with tracer.span("run") as root:
            with tracer.span("resolve"):
                pass
        timings = timings_view(tracer.records(), root.span_id)
        assert set(timings) == {"resolve", "total"}

    def test_format_span_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("extract"):
                pass
        rows = format_span_tree(tracer.records())
        assert len(rows) == 2
        assert "run" in rows[0] and "extract" in rows[1]
        indent = lambda row: len(row) - len(row.lstrip())  # noqa: E731
        assert indent(rows[1]) == indent(rows[0]) + 2

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            span.set(more=2)
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.current_context() is None
        assert NULL_TRACER.enabled is False
        # One shared no-op span object: no allocation per call.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


# ---------------------------------------------------------------- metrics --
class TestMetrics:
    def test_counter_inc_and_negative_rejection(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)

    def test_gauge_holds_last_value(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_buckets_and_overflow(self):
        histogram = Histogram("h", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["bounds"] == [0.1, 1.0]
        assert snap["counts"] == [1, 2, 1]  # <=0.1, <=1.0, overflow
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(3.05)
        assert snap["min"] == 0.05 and snap["max"] == 2.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(1.0, 0.5))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(1.0, 1.0))

    def test_histogram_needs_a_bound(self):
        with pytest.raises(ValueError, match=">= 1 bucket bound"):
            Histogram("h", bounds=())

    def test_histogram_count_tracks_observations(self):
        histogram = Histogram("h", bounds=(1.0,))
        assert histogram.count == 0
        histogram.observe(0.5)
        histogram.observe(3.0)
        assert histogram.count == 2

    def test_registry_rejects_non_string_names(self):
        registry = MetricsRegistry()
        for name in ("", 7):
            with pytest.raises(TypeError, match="non-empty strings"):
                registry.register(name, Counter("x"))
        assert len(registry) == 0

    def test_registry_get_or_create_shares_instances(self):
        registry = MetricsRegistry()
        first = registry.counter("a.count")
        assert registry.counter("a.count") is first
        assert "a.count" in registry
        assert len(registry) == 1

    def test_registry_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="is a Counter"):
            registry.gauge("x")

    def test_registry_duplicate_register_is_an_error(self):
        registry = MetricsRegistry()
        registry.register("x", Counter("x"))
        with pytest.raises(ValueError, match="already has"):
            registry.register("x", Counter("x"))

    def test_registry_unknown_get_names_available(self):
        registry = MetricsRegistry()
        registry.counter("known")
        with pytest.raises(KeyError, match="known"):
            registry.get("unknown")

    def test_snapshot_groups_by_kind_and_sorts(self):
        registry = MetricsRegistry()
        registry.gauge("b.gauge").set(2)
        registry.counter("a.count").inc(3)
        registry.histogram("c.latency", bounds=DEFAULT_BUCKETS).observe(0.01)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"] == {"a.count": 3}
        assert snap["gauges"] == {"b.gauge": 2.0}
        assert snap["histograms"]["c.latency"]["count"] == 1
        json.dumps(snap)  # JSON-ready by contract

    def test_concurrent_hammering_totals_exactly(self):
        """ISSUE gate: N threads x M increments == N*M, no lost updates."""
        registry = MetricsRegistry()
        n_threads, n_increments = 8, 1000
        ready = threading.Barrier(n_threads)

        def hammer():
            counter = registry.counter("hammered.count")
            histogram = registry.histogram("hammered.latency")
            ready.wait(timeout=30)
            for i in range(n_increments):
                counter.inc()
                histogram.observe(i * 1e-5)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert registry.counter("hammered.count").value == n_threads * n_increments
        snap = registry.histogram("hammered.latency").snapshot()
        assert snap["count"] == n_threads * n_increments
        assert sum(snap["counts"]) == n_threads * n_increments


# -------------------------------------------------------------- exporters --
class TestExporters:
    @pytest.fixture()
    def traced(self):
        tracer = Tracer()
        with tracer.span("run", seed=9):
            with tracer.span("extract"):
                pass
        return tracer

    def test_chrome_export_is_valid_and_loadable_shape(self, traced):
        payload = trace_to_chrome(traced)
        assert validate_chrome_trace(payload) == []
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {event["name"] for event in complete} == {"run", "extract"}
        assert all(event["ts"] >= 0 and event["dur"] >= 0 for event in complete)
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert metadata and all(e["name"] == "thread_name" for e in metadata)
        assert payload["otherData"] == {"trace_id": traced.trace_id, "format": "repro-trace/1"}
        starts = [event["ts"] for event in complete]
        assert starts == sorted(starts)

    def test_validator_catches_broken_payloads(self):
        assert validate_chrome_trace([]) == ["payload must be a JSON object, got list"]
        assert validate_chrome_trace({}) == ["payload.traceEvents must be a list"]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "", "pid": 1, "tid": 1,
                              "ts": -1, "dur": 0}]}
        )
        assert any("missing event name" in problem for problem in problems)
        assert any("ts must be a non-negative number" in problem for problem in problems)
        assert validate_chrome_trace({"traceEvents": [{"ph": "?"}]}) != []

    def test_validator_names_non_object_events_and_non_int_ids(self):
        problems = validate_chrome_trace(
            {"traceEvents": [
                "not an event",
                {"ph": "X", "name": "run", "pid": "1", "tid": 1.5, "ts": 0, "dur": 1},
            ]}
        )
        assert problems == [
            "traceEvents[0]: not an object",
            "traceEvents[1]: pid must be an int",
            "traceEvents[1]: tid must be an int",
        ]

    def test_validator_flags_a_trace_without_complete_events(self):
        metadata = {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1}
        assert validate_chrome_trace({"traceEvents": [metadata]}) == [
            "no complete ('X') events — empty trace"
        ]

    def test_write_json_is_atomic_and_deterministic(self, traced, tmp_path):
        target = tmp_path / "nested" / "trace.json"
        write_json(str(target), trace_to_chrome(traced))
        assert target.exists()
        loaded = json.loads(target.read_text())
        assert validate_chrome_trace(loaded) == []
        # No temp-file litter next to the target.
        assert [p.name for p in target.parent.iterdir()] == ["trace.json"]

    def test_write_json_failure_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "trace.json"
        with pytest.raises(TypeError):
            write_json(str(target), {"traceEvents": [object()]})
        assert list(tmp_path.iterdir()) == []


# ------------------------------------------------- runner instrumentation --
class TestRunnerInstrumentation:
    def test_traced_report_json_is_bitwise_identical_to_untraced(self):
        """ISSUE gate: telemetry never changes deterministic output."""
        untraced = Runner(tracer=NULL_TRACER).run(metaseg_payload())
        traced = Runner(tracer=Tracer()).run(metaseg_payload())
        default = Runner().run(metaseg_payload())
        assert traced.to_json() == untraced.to_json()
        assert default.to_json() == untraced.to_json()

    def test_null_tracer_disables_timings_entirely(self):
        report = Runner(tracer=NULL_TRACER).run(metaseg_payload())
        assert report.timings == {}

    def test_default_runner_keeps_timings_contract(self):
        report = Runner().run(metaseg_payload())
        assert {"resolve", "extract", "evaluate", "total"} <= set(report.timings)
        assert report.timings["total"] >= report.timings["extract"]

    def test_shared_tracer_collects_stage_spans(self):
        tracer = Tracer()
        Runner(tracer=tracer).run(metaseg_payload())
        names = {record["name"] for record in tracer.records()}
        assert {"run", "resolve", "extract", "evaluate"} <= names
        run_record = [r for r in tracer.records() if r["name"] == "run"][0]
        assert run_record["attrs"]["kind"] == "metaseg"

    def test_process_backend_propagates_span_context(self):
        """ISSUE gate: shard spans cross the process boundary and re-parent."""
        tracer = Tracer()
        report = Runner(tracer=tracer).run(
            metaseg_payload(backend="process", workers=2)
        )
        assert {"extract.shard0", "extract.shard1"} <= set(report.timings)
        records = tracer.records()
        extract = [r for r in records if r["name"] == "extract"][0]
        shards = sorted(
            (r for r in records if r["name"].startswith("shard")),
            key=lambda r: r["name"],
        )
        assert [shard["name"] for shard in shards] == ["shard0", "shard1"]
        for index, shard in enumerate(shards):
            # Re-parented under the parent's extract span, with the
            # collision-free id prefix the parent handed the worker.
            assert shard["parent_id"] == extract["span_id"]
            assert shard["span_id"].startswith(f"{extract['span_id']}.{index}.")
            assert shard["attrs"]["start"] == shard["attrs"]["stop"] - 2

    def test_process_backend_traced_matches_untraced_bitwise(self):
        traced = Runner(tracer=Tracer()).run(metaseg_payload(backend="process", workers=2))
        untraced = Runner(tracer=NULL_TRACER).run(metaseg_payload(backend="process", workers=2))
        assert traced.to_json() == untraced.to_json()

    def test_cached_payloads_stay_telemetry_free(self, tmp_path):
        """Shard-cache round trip: the trace envelope never reaches the store."""
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        cold = Runner(store=store, tracer=Tracer()).run(
            metaseg_payload(backend="process", workers=2)
        )
        warm_tracer = Tracer()
        warm = Runner(store=store, tracer=warm_tracer).run(
            metaseg_payload(backend="process", workers=2)
        )
        assert warm.cache["hit"] is True
        assert warm.to_json() == cold.to_json()
        assert warm.timings.keys() == {"cache_lookup"}


# ------------------------------------------------- fit convergence metric --
class TestFitConvergenceMetric:
    def test_forced_max_iter_counts_one(self):
        import numpy as np

        from repro.models.logistic import LogisticRegression

        counter = METRICS.counter("fit.unconverged")
        before = counter.value
        x = np.linspace(-2.0, 2.0, 40).reshape(-1, 1)
        model = LogisticRegression(max_iter=1).fit(x, (x[:, 0] > 0.3).astype(int))
        assert not model.converged_ and model.n_iter_ == 1
        assert counter.value - before == 1

    def test_metaseg_small_fits_converge_and_stay_out_of_reports(self):
        config = json.loads((EXAMPLE_CONFIGS / "metaseg_small.json").read_text())
        counter = METRICS.counter("fit.unconverged")
        before = counter.value
        report = Runner().run(config)
        assert counter.value == before
        assert "unconverged" not in report.to_json()
