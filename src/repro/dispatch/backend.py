"""The ``distributed`` execution backend: shard fan-out over the work queue.

:class:`DistributedBackend` is the :class:`~repro.api.execution.ProcessBackend`
with one method replaced: :meth:`~DistributedBackend.map` hands the shard
specs to the fault-tolerant dispatch queue instead of a process pool.  A
:class:`~repro.dispatch.coordinator.Coordinator` serves the specs over
localhost TCP to ``multiprocessing`` workers running
:func:`~repro.dispatch.worker.worker_main` (externally attached
``python -m repro worker`` processes can join the same queue).  Everything
else — spec construction, trace-envelope absorption, shard-order folding,
the inline walk for a single shard, and the store's single-flight shard
claims — is inherited, so the bitwise-parity contract of the base class
carries over verbatim; the queue adds worker-loss tolerance, lease
timeouts, retry with backoff, dedup and inline graceful degradation on top.

The public :meth:`~DistributedBackend.map` also carries whole sweep points
(:mod:`repro.sweep.driver`): any module-level function over picklable
items can ride the queue.

Queue stats accumulate on ``self.dispatch_stats`` (the Runner copies them
into ``report.cache["dispatch"]``) and mirror to ``METRICS`` under
``dispatch.*`` — the counters the fault-injection suite asserts exactly.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Dict, Iterable, List, Optional

from repro.api.config import ExecutionConfig
from repro.api.execution import ProcessBackend
from repro.api.registry import EXECUTION_BACKENDS
from repro.dispatch.coordinator import STAT_NAMES, Coordinator
from repro.dispatch.faults import FaultPlan
from repro.dispatch.worker import is_worker_process, worker_main
from repro.store import shard_key

#: Grace period for spawned workers to exit after the queue winds down.
JOIN_TIMEOUT = 10.0


def _worker_context():
    """The multiprocessing context used for spawned queue workers.

    Fork is preferred where available (no import re-execution, cheap
    startup); the platform default otherwise.  Workers never share state
    with the parent beyond the spec they receive over the socket, so the
    start method cannot influence results.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@EXECUTION_BACKENDS.register("distributed")
class DistributedBackend(ProcessBackend):
    """Sharded execution over the fault-tolerant dispatch queue; see module doc."""

    name = "distributed"

    def __init__(self, execution: ExecutionConfig) -> None:
        super().__init__(execution)
        #: Aggregated queue counters of this run (see ``STAT_NAMES``); the
        #: Runner exposes them as ``report.cache["dispatch"]``.
        self.dispatch_stats: Dict[str, int] = {name: 0 for name in STAT_NAMES}

    def default_workers(self) -> int:
        if is_worker_process():
            # Inside a dispatch worker: degrade to the inline serial walk so
            # a distributed config never recursively fans out from within
            # its own workers.
            return 1
        return super().default_workers()

    # ------------------------------------------------------------- the queue
    @staticmethod
    def _dedup_keys(specs: List[Dict]) -> Optional[List[Optional[str]]]:
        """Shard-content keys for queue-level dedup, where derivable.

        Two specs with the same (config, index range) produce byte-identical
        payloads, so the coordinator may compute one and fan the result out.
        Specs without the shard fields (e.g. sweep points) get ``None``.
        """
        keys: List[Optional[str]] = []
        for spec in specs:
            try:
                keys.append(shard_key(spec["config"], spec["start"], spec["stop"]))
            except (KeyError, TypeError):
                keys.append(None)
        return keys if any(key is not None for key in keys) else None

    def map(self, fn: Callable, items: Iterable) -> List:
        """``fn`` over ``items`` through the dispatch queue, in input order.

        ``fn`` must be a module-level function (workers import it by name)
        and the items picklable.  A single item, or a call from inside a
        dispatch worker, runs inline.
        """
        specs = list(items)
        if len(specs) == 1 or is_worker_process():
            return [fn(spec) for spec in specs]
        name = f"{fn.__module__}:{fn.__qualname__}"
        fault_plan = FaultPlan.from_env()
        n_workers = min(self.default_workers(), len(specs))
        context = _worker_context()
        execution = self.execution
        with Coordinator(
            lease_timeout=execution.lease_timeout,
            max_retries=execution.max_retries,
            backoff=execution.backoff,
        ) as coordinator:
            host, port = coordinator.address
            spawned = []
            for index in range(n_workers):
                process = context.Process(
                    target=worker_main,
                    args=(host, port),
                    kwargs={"worker_id": f"w{index}", "fault_plan": fault_plan},
                    daemon=True,
                )
                process.start()
                spawned.append(process)
            try:
                results = coordinator.run(
                    name, specs, keys=self._dedup_keys(specs), spawned=spawned
                )
            finally:
                for stat, value in coordinator.stats.items():
                    self.dispatch_stats[stat] += value
                coordinator.close()  # EOF tells lingering workers to exit
                for process in spawned:
                    process.join(timeout=JOIN_TIMEOUT)
                for process in spawned:
                    if process.is_alive():
                        process.terminate()
                        process.join(timeout=JOIN_TIMEOUT)
        return results


__all__ = ["DistributedBackend", "JOIN_TIMEOUT"]
