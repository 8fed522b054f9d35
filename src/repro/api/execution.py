"""Execution backends: where the shards of an experiment's stage 1 run.

Stage 1 is the walk over independent items that precedes every protocol:
Table I extracts the metrics of each validation frame, Table II processes
each video sequence, and Fig. 5 decodes each validation frame under every
decision rule.  Each kind's item count, pure shard function
``(resolved, start, stop, priors) -> payload`` and in-order fold are one
entry of :data:`repro.api.kinds.KINDS`.

A backend does one thing: it maps the shard function over
``shard_ranges(n, workers)``.  A single shard always runs inline on the
already-resolved experiment.  Otherwise:

* ``serial`` — always one shard (the default);
* ``thread`` — contiguous shards on a ``ThreadPoolExecutor`` (numpy releases
  the GIL in the heavy kernels);
* ``process`` — picklable specs (the config dict, the index range and, for
  the decision kind, the fitted priors) on a ``ProcessPoolExecutor``.  Each
  worker rebuilds the experiment from the config and runs the same shard
  function.  With a store attached, shards are content-addressed and
  claimed single-flight through :meth:`repro.store.ResultStore.get_or_compute`
  (:meth:`ProcessBackend._map_ranges`).  A lost worker does not fail the
  run: the items it left unfinished are recomputed inline in the parent
  (:meth:`ProcessBackend.map`).

The reproducibility contract is absolute: **backends only change where the
work runs, never the numbers.**  Per-item results are pure functions of
``(config, derived_seeds, item_index)``, shards are contiguous and folded
in order, and the evaluation protocols (which consume one RNG stream) run
in the parent — so every backend and worker count is bitwise identical to
serial.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Tuple

from repro.api.config import ExecutionConfig, ExperimentConfig
from repro.api.kinds import KINDS, ExperimentKind
from repro.api.registry import EXECUTION_BACKENDS
from repro.api.runner import ResolvedExperiment, Runner
from repro.obs import METRICS, NULL_TRACER, Tracer
from repro.store import shard_key


def shard_ranges(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced, deterministic ``[start, stop)`` index ranges.

    The first ``n_items % n_shards`` shards get one extra item; empty shards
    are dropped.  Contiguity is what keeps the shard merge order-preserving
    (shard *k* holds exactly the items serial execution would have processed
    at positions ``start_k .. stop_k``).
    """
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_items) or 1
    base, remainder = divmod(n_items, n_shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for shard in range(n_shards):
        stop = start + base + (1 if shard < remainder else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges


class ShardError(RuntimeError):
    """An item a lost worker left unfinished also failed when recomputed inline.

    Raised by :meth:`ProcessBackend.map`; the message names the item index
    and, for a shard spec, its ``[start, stop)`` range, and the inline
    failure is chained as ``__cause__``.
    """


def _describe_item(index: int, item: object) -> str:
    """``item 3``, or ``shard 3 [6, 8)`` for a spec carrying an index range."""
    if isinstance(item, dict) and "start" in item and "stop" in item:
        return f"shard {index} [{item['start']}, {item['stop']})"
    return f"item {index}"


def _spec_shard(spec: Dict):
    """Compute one shard spec in this process, rebuilding the experiment.

    Module-level so it pickles; workers never consult the config's execution
    section, so there is no recursive fan-out.  A spec without a ``"trace"``
    entry returns the payload itself.  With one, the worker continues the
    parent trace: it builds a child :class:`~repro.obs.Tracer` on the
    shipped trace id (with a per-shard span-id prefix so merged timelines
    never collide), runs the shard under a span parented to the remote
    parent span, and returns ``{"__trace__": export, "payload": payload}``.
    The parent unwraps the envelope before any store write.
    """
    def payload():
        config = ExperimentConfig.from_dict(spec["config"])
        resolved = Runner().resolve(config)
        shard = KINDS[config.kind].shard
        return shard(resolved, spec["start"], spec["stop"], spec["priors"])

    trace = spec.get("trace")
    if trace is None:
        return payload()
    tracer = Tracer(trace_id=trace["trace_id"], id_prefix=trace["id_prefix"])
    with tracer.span(
        trace["name"],
        parent_id=trace["parent_span_id"],
        start=spec["start"],
        stop=spec["stop"],
    ):
        result = payload()
    return {"__trace__": tracer.export(), "payload": result}


# ------------------------------------------------------------------ backends
@EXECUTION_BACKENDS.register("serial")
class SerialBackend:
    """One inline shard on the already-resolved experiment (the default).

    Also the base class of the other backends: :meth:`stage1` is the one
    walk every backend shares, and subclasses change only the shard count
    and where the shards run (:meth:`map`).  The evaluation protocols
    always run in the parent, on the folded stage-1 result, so they consume
    one RNG stream regardless of the backend.
    """

    name = "serial"

    def __init__(self, execution: ExecutionConfig) -> None:
        execution.validate()
        self.execution = execution
        self.store = None
        self.tracer = NULL_TRACER

    def attach_store(self, store) -> None:
        """Install a :class:`repro.store.ResultStore` for shard reuse.

        Called by the Runner when it was built with a store.  In-process
        shards are not cached (whole-report memoisation already happens in
        the Runner); the ``process`` backend caches and claims its shipped
        shards in the store.
        """
        self.store = store  # repro: allow[concurrency-shared-state] -- Runner wires the store on the parent thread before any walk starts

    def attach_tracer(self, tracer) -> None:
        """Install the run's :class:`repro.obs.Tracer` (default: no-op).

        Spec-shipping backends embed the tracer's span context into the
        shard specs and merge the child timelines they get back; in-process
        shards run entirely under the Runner's stage spans.
        """
        self.tracer = tracer  # repro: allow[concurrency-shared-state] -- Runner wires the tracer on the parent thread before any walk starts

    def default_workers(self) -> int:
        """The shard count; ``serial`` always runs one."""
        return 1

    def map(self, fn: Callable, items: Iterable) -> List:
        """``fn`` over ``items`` on this backend's workers, in input order."""
        return [fn(item) for item in items]

    def stage1(self, resolved: ResolvedExperiment, priors=None) -> Tuple[object, int]:
        """Walk stage 1 of a resolved experiment: (folded result, item count).

        ``priors`` (the decision kind's fitted prior field) ride along to
        every shard.
        """
        kind = KINDS[resolved.config.kind]
        n_items = int(getattr(resolved.dataset, kind.size))
        if n_items < 1:
            raise ValueError(f"{resolved.config.kind} needs data.{kind.size} >= 1")
        ranges = shard_ranges(n_items, self.default_workers())
        if len(ranges) == 1:
            shards = [kind.shard(resolved, 0, n_items, priors)]
        else:
            shards = self._map_ranges(kind, resolved, ranges, priors)
        return kind.fold(resolved, shards), n_items

    def _map_ranges(self, kind: ExperimentKind, resolved, ranges, priors) -> List:
        """Shard payloads of several ranges, computed in this process."""
        return self.map(lambda bounds: kind.shard(resolved, *bounds, priors), ranges)


@EXECUTION_BACKENDS.register("thread")
class ThreadBackend(SerialBackend):
    """Contiguous shards on a thread pool, folded in shard order."""

    name = "thread"

    def default_workers(self) -> int:
        """``None`` picks the core count; explicit 0 and 1 mean one shard."""
        if self.execution.workers is None:
            return os.cpu_count() or 1
        return max(1, int(self.execution.workers))

    def map(self, fn: Callable, items: Iterable) -> List:
        items = list(items)
        with ThreadPoolExecutor(max_workers=max(1, len(items))) as pool:
            return list(pool.map(fn, items))


@EXECUTION_BACKENDS.register("process")
class ProcessBackend(ThreadBackend):
    """Shard specs on a process pool, cached and claimed through the store.

    The parent ships each worker a picklable spec — the config dict, its
    ``[start, stop)`` range and, for the decision kind, the fitted priors —
    and folds the payloads **in shard order**, which is input order, so the
    result is bitwise identical to serial.

    A worker that dies (segfault, OOM kill, ``os._exit``) breaks the pool;
    :meth:`map` then recomputes the items left unfinished inline, which is
    bitwise the same by the purity contract.  A shard that *hangs* is not
    timed out: a pure numeric shard that never returns is a program bug.
    """

    name = "process"

    def __init__(self, execution: ExecutionConfig) -> None:
        super().__init__(execution)
        #: Per-shard cache counters of this run (kept even without a store,
        #: so the Runner's bookkeeping never needs a hasattr dance).
        self.shard_cache = {"hits": 0, "misses": 0}

    def map(self, fn: Callable, items: Iterable) -> List:
        """``fn`` over ``items`` on a process pool, surviving lost workers.

        Every result that finished is kept.  If the pool breaks, the
        unfinished items are recomputed inline in input order and
        ``execution.worker_lost`` counts the broken pool once; an inline
        failure raises :class:`ShardError`.  An exception ``fn`` raises in
        a worker propagates unchanged and is not recomputed.
        """
        items = list(items)
        results: List = [None] * len(items)
        unfinished: List[int] = []
        futures = []
        with ProcessPoolExecutor(max_workers=max(1, len(items))) as pool:
            try:
                for item in items:
                    futures.append(pool.submit(fn, item))
            except BrokenProcessPool:
                pass  # the items never submitted are recomputed below
            for index, future in enumerate(futures):
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    unfinished.append(index)
        unfinished.extend(range(len(futures), len(items)))
        if unfinished:
            METRICS.counter("execution.worker_lost").inc()
            for index in unfinished:
                try:
                    results[index] = fn(items[index])
                except Exception as exc:
                    raise ShardError(
                        f"{_describe_item(index, items[index])} failed when "
                        f"recomputed inline after a worker was lost: {exc!r}"
                    ) from exc
        return results

    def _map_ranges(self, kind: ExperimentKind, resolved, ranges, priors) -> List:
        """Shard payloads in shard order, single-flight across processes.

        Without a store every spec is computed by one :meth:`map`.  With
        one, shards are content-addressed by (stage-1 config hash, index
        range) and go through :meth:`ResultStore.get_or_compute`: cached
        shards are served without spawning anything, the claimed misses
        are computed by one :meth:`map` and shards another process holds
        are waited for (or rescued).  Because the key excludes every
        protocol-side field, a sweep that only changes the meta-model
        reuses every shard.
        """
        config_dict = resolved.config.to_dict()
        specs = [
            {"config": config_dict, "start": start, "stop": stop, "priors": priors}
            for start, stop in ranges
        ]
        context = self.tracer.current_context() if self.tracer.enabled else None
        if context is not None:
            # Continue the parent trace across the process boundary: each
            # spec carries the open stage span as remote parent plus a
            # per-shard id prefix.  ``shard_key`` ignores the entry, so
            # traced and untraced payloads share cache entries.
            for index, spec in enumerate(specs):
                spec["trace"] = {
                    "trace_id": context["trace_id"],
                    "parent_span_id": context["parent_span_id"],
                    "id_prefix": f"{context['parent_span_id']}.{index}.",
                    "name": f"shard{index}",
                }

        def compute(indices) -> List:
            payloads = []
            for result in self.map(_spec_shard, [specs[index] for index in indices]):
                if isinstance(result, dict) and "__trace__" in result:
                    # Fold the carried child timeline in and strip the
                    # envelope: stored and folded payloads never see telemetry.
                    self.tracer.merge(result["__trace__"])
                    result = result["payload"]
                payloads.append(result)
            return payloads

        if self.store is None:
            return compute(range(len(specs)))
        keys = [shard_key(config_dict, start, stop) for start, stop in ranges]
        payloads, hits = self.store.get_or_compute(
            keys,
            compute,
            codec="pickle",
            provenance=[
                {"type": "shard", "kind": config_dict["kind"], "start": start,
                 "stop": stop, "config_hash": key}
                for (start, stop), key in zip(ranges, keys)
            ],
        )
        for hit in hits:
            self.shard_cache["hits" if hit else "misses"] += 1  # repro: allow[concurrency-shared-state] -- counted on the parent thread after the pool has joined
        return payloads
