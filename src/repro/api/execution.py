"""Stage 1 of an experiment: one walk, cut into shards that run anywhere.

Stage 1 is the walk over independent items that precedes every protocol:
Table I extracts the metrics of each validation frame, Table II processes
each video sequence, and Fig. 5 decodes each validation frame under every
decision rule.  Each kind's item count, pure shard function
``(resolved, start, stop, priors) -> payload`` and in-order fold are one
entry of :data:`repro.api.kinds.KINDS`.

:func:`walk_stage1` is the walk: it runs the shard function over
``shard_ranges(n, n_shards(execution))`` and folds the payloads in shard
order.  A single shard runs inline on the already-resolved experiment.
Several shards become picklable specs (the config dict, the index range
and, for the decision kind, the fitted priors) on a
``ProcessPoolExecutor``; each worker rebuilds the experiment from the
config and runs the same shard function.  With a store, shards are
content-addressed and claimed single-flight through
:meth:`repro.store.ResultStore.get_or_compute`.  A lost worker does not
fail the run: the shards it left unfinished are recomputed inline in the
parent (:func:`map`).

The reproducibility contract is absolute: **the shard count only changes
where the work runs, never the numbers.**  Per-item results are pure
functions of ``(config, derived_seeds, item_index)``, shards are
contiguous and folded in order, and the evaluation protocols (which
consume one RNG stream) run in the parent — so every backend and worker
count is bitwise identical to serial.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Tuple

from repro.api.config import ExecutionConfig, ExperimentConfig
from repro.api.kinds import KINDS
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


def n_shards(execution: ExecutionConfig) -> int:
    """The stage-1 shard count of an execution section.

    ``workers`` when it is set (0 and 1 mean one shard); otherwise one
    under ``serial`` and the core count under ``process``.
    """
    if execution.workers is not None:
        return max(1, int(execution.workers))
    if execution.backend == "process":
        return os.cpu_count() or 1
    return 1


class ShardError(RuntimeError):
    """A shard a lost worker left unfinished also failed when recomputed inline.

    Raised by :func:`map`; the message names the shard index and its
    ``[start, stop)`` range, and the inline failure is chained as
    ``__cause__``.
    """


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
    # The runner calls walk_stage1, so it is imported where a worker needs it.
    from repro.api.runner import Runner

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


def map(fn: Callable, specs: List[Dict]) -> List:
    """``fn`` over shard ``specs`` on a process pool, surviving lost workers.

    Every result that finished is kept.  If the pool breaks (a worker
    segfaults, is OOM-killed or calls ``os._exit``), the unfinished specs
    are recomputed inline in input order — bitwise the same by the purity
    contract — and ``execution.worker_lost`` counts the broken pool once;
    an inline failure raises :class:`ShardError`.  An exception ``fn``
    raises in a worker propagates unchanged and is not recomputed.  A shard
    that *hangs* is not timed out: a pure numeric shard that never returns
    is a program bug.
    """
    results: List = [None] * len(specs)
    unfinished: List[int] = []
    futures = []
    with ProcessPoolExecutor(max_workers=max(1, len(specs))) as pool:
        try:
            for spec in specs:
                futures.append(pool.submit(fn, spec))
        except BrokenProcessPool:
            pass  # the specs never submitted are recomputed below
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                unfinished.append(index)
    unfinished.extend(range(len(futures), len(specs)))
    if unfinished:
        METRICS.counter("execution.worker_lost").inc()
        for index in unfinished:
            spec = specs[index]
            try:
                results[index] = fn(spec)
            except Exception as exc:
                raise ShardError(
                    f"shard {index} [{spec['start']}, {spec['stop']}) failed when "
                    f"recomputed inline after a worker was lost: {exc!r}"
                ) from exc
    return results


def walk_stage1(
    resolved, priors=None, store=None, tracer=NULL_TRACER
) -> Tuple[object, int, Dict[str, int]]:
    """Walk stage 1 of a resolved experiment: (folded result, item count,
    shard cache counters).

    ``priors`` (the decision kind's fitted prior field) ride along to every
    shard.  One shard runs inline and is not cached (whole-report
    memoisation already happens in the Runner).  Several shards run on a
    process pool (:func:`map`); the tracer's open span is shipped with each
    spec and the child timelines are merged back.  With a ``store``, shards
    are content-addressed by (stage-1 config hash, index range) and go
    through :meth:`ResultStore.get_or_compute`: cached shards are served
    without spawning anything, the claimed misses are computed by one
    :func:`map` and shards another process holds are waited for (or
    rescued).  Because the key excludes every protocol-side field, a sweep
    that only changes the meta-model reuses every shard.  The counters
    (``hits``/``misses``) are empty unless the shards went through a store.
    """
    kind = KINDS[resolved.config.kind]
    n_items = int(getattr(resolved.dataset, kind.size))
    if n_items < 1:
        raise ValueError(f"{resolved.config.kind} needs data.{kind.size} >= 1")
    ranges = shard_ranges(n_items, n_shards(resolved.config.execution))
    if len(ranges) == 1:
        return kind.fold(resolved, [kind.shard(resolved, 0, n_items, priors)]), n_items, {}
    config_dict = resolved.config.to_dict()
    specs = [
        {"config": config_dict, "start": start, "stop": stop, "priors": priors}
        for start, stop in ranges
    ]
    context = tracer.current_context() if tracer.enabled else None
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
        for result in map(_spec_shard, [specs[index] for index in indices]):
            if isinstance(result, dict) and "__trace__" in result:
                # Fold the carried child timeline in and strip the
                # envelope: stored and folded payloads never see telemetry.
                tracer.merge(result["__trace__"])
                result = result["payload"]
            payloads.append(result)
        return payloads

    if store is None:
        return kind.fold(resolved, compute(range(len(specs)))), n_items, {}
    keys = [shard_key(config_dict, start, stop) for start, stop in ranges]
    payloads, hits = store.get_or_compute(
        keys,
        compute,
        codec="pickle",
        provenance=[
            {"type": "shard", "kind": config_dict["kind"], "start": start,
             "stop": stop, "config_hash": key}
            for (start, stop), key in zip(ranges, keys)
        ],
    )
    counts = {"hits": sum(hits), "misses": len(hits) - sum(hits)}
    return kind.fold(resolved, payloads), n_items, counts
