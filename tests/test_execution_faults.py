"""Worker-loss fault tests for the ``process`` backend.

Every test kills pool workers by monkeypatching
``repro.api.execution._spec_shard`` with :func:`faulty_shard` (forked pool
workers inherit the patch) and then asserts two things:

1. **bitwise parity** — tables and provenance identical to the serial
   reference, whichever workers died;
2. **exact counting** — ``execution.worker_lost`` moved by exactly the
   number of broken pools.

Select with ``-m faults``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

import pytest

from repro.__main__ import main
from repro.api import execution
from repro.api.config import ExperimentConfig
from repro.api.execution import ShardError
from repro.api.runner import Runner
from repro.obs import METRICS, Tracer
from repro.store import ResultStore

from test_api_execution import PAYLOADS, assert_reports_identical, run_with_execution

pytestmark = [
    pytest.mark.faults,
    pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the kill patch reaches pool workers only through fork",
    ),
]

#: Shards per kind at workers=2 for the tiny payloads.
N_SHARDS = 2

PROCESS = {"backend": "process", "workers": 2}

EXAMPLE_CONFIG = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "configs", "metaseg_small.json"
)

REAL_SHARD = execution._spec_shard

#: The active fault plan, read by :func:`faulty_shard` in the parent and
#: (inherited through fork) in every pool worker.
PLAN: dict = {}


def faulty_shard(spec):
    """``_spec_shard`` under :data:`PLAN`: die, raise or compute.

    In a pool worker, ``kill(spec)`` ends the process the way a crash would
    and ``raise_in_worker(spec)`` raises an ordinary error.  In the parent
    (the inline recompute) every call is recorded and ``fail_inline(spec)``
    raises.
    """
    if os.getpid() != PLAN["parent"]:
        if PLAN["kill"](spec):
            os._exit(1)
        if PLAN["raise_in_worker"](spec):
            raise ValueError(f"bad shard [{spec['start']}, {spec['stop']})")
    else:
        PLAN["inline"].append((spec["start"], spec["stop"]))
        if PLAN["fail_inline"](spec):
            raise RuntimeError("inline recompute failed too")
    return REAL_SHARD(spec)


def never(spec) -> bool:
    return False


def first_shard(spec) -> bool:
    return spec["start"] == 0


def every_shard(spec) -> bool:
    return True


@pytest.fixture
def plan(monkeypatch):
    """Install :func:`faulty_shard` under a fault-free plan; returns the
    setter that replaces the plan."""
    monkeypatch.setattr(execution, "_spec_shard", faulty_shard)

    def install(kill=never, raise_in_worker=never, fail_inline=never) -> dict:
        monkeypatch.setattr(sys.modules[__name__], "PLAN", {
            "parent": os.getpid(), "kill": kill, "raise_in_worker": raise_in_worker,
            "fail_inline": fail_inline, "inline": [],
        })
        return PLAN

    install()
    return install


def worker_lost() -> int:
    return METRICS.counter("execution.worker_lost").value


@pytest.fixture(scope="module")
def serial_reports():
    """Serial-backend reference reports, one per experiment kind (seed 3)."""
    return {
        kind: Runner().run(ExperimentConfig.from_dict(make(3)))
        for kind, make in PAYLOADS.items()
    }


class TestWorkerLoss:
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_kill_worker_holding_shard_zero(self, kind, plan, serial_reports):
        active = plan(kill=first_shard)
        before = worker_lost()
        report = run_with_execution(PAYLOADS[kind](3), PROCESS)
        assert_reports_identical(serial_reports[kind], report, f"kill-one/{kind}")
        assert worker_lost() - before == 1
        # Shard 0 died with its worker, so the parent recomputed it.
        assert active["inline"][0][0] == 0

    def test_every_worker_dies_and_everything_finishes_inline(
        self, plan, serial_reports
    ):
        active = plan(kill=every_shard)
        before = worker_lost()
        report = run_with_execution(PAYLOADS["metaseg"](3), PROCESS)
        assert_reports_identical(serial_reports["metaseg"], report, "all-die")
        assert worker_lost() - before == 1
        assert len(active["inline"]) == N_SHARDS
        assert [start for start, _ in active["inline"]] == sorted(
            start for start, _ in active["inline"]
        )

    def test_failed_inline_recompute_raises_shard_error(self, plan):
        plan(kill=first_shard, fail_inline=first_shard)
        before = worker_lost()
        with pytest.raises(ShardError, match=r"shard 0 \[0, 3\)") as error:
            run_with_execution(PAYLOADS["metaseg"](3), PROCESS)
        assert isinstance(error.value.__cause__, RuntimeError)
        assert "inline recompute failed too" in str(error.value)
        assert worker_lost() - before == 1

    def test_ordinary_worker_error_propagates_unchanged(self, plan):
        active = plan(raise_in_worker=first_shard)
        before = worker_lost()
        with pytest.raises(ValueError) as error:
            run_with_execution(PAYLOADS["metaseg"](3), PROCESS)
        assert type(error.value) is ValueError
        assert str(error.value) == "bad shard [0, 3)"
        assert active["inline"] == []
        assert worker_lost() == before


class TestRecoveryReachesEveryCaller:
    def test_traced_kill_one_matches_untraced_bitwise(self, plan, serial_reports):
        payload = {**PAYLOADS["metaseg"](3), "execution": PROCESS}
        untraced = Runner().run(payload)
        plan(kill=first_shard)
        before = worker_lost()
        tracer = Tracer()
        traced = Runner(tracer=tracer).run(payload)
        assert worker_lost() - before == 1
        assert traced.to_json() == untraced.to_json()
        assert_reports_identical(serial_reports["metaseg"], traced, "traced kill-one")
        # The recomputed shard's trace envelope is unwrapped and merged too.
        names = [record["name"] for record in tracer.records()]
        assert "shard0" in names and "shard1" in names

    def test_kill_one_with_a_store_publishes_every_shard(
        self, plan, serial_reports, tmp_path
    ):
        plan(kill=first_shard)
        store = ResultStore(tmp_path)
        payload = {**PAYLOADS["metaseg"](3), "execution": PROCESS}
        before = worker_lost()
        cold = Runner(store=store).run(payload)
        assert worker_lost() - before == 1
        assert_reports_identical(serial_reports["metaseg"], cold, "stored kill-one")
        assert cold.cache["shards"] == {"hits": 0, "misses": N_SHARDS}
        # A protocol-side change misses the report memo but not the shards.
        payload["evaluation"] = {"n_runs": 1}
        warm = Runner(store=store).run(payload)
        assert warm.cache["hit"] is False
        assert warm.cache["shards"]["hits"] == N_SHARDS
        assert worker_lost() - before == 1

    def test_cli_kill_one_matches_serial(self, plan, tmp_path, capsys):
        serial_out, process_out = tmp_path / "serial.json", tmp_path / "process.json"
        assert main(["run", EXAMPLE_CONFIG, "--output", str(serial_out)]) == 0
        plan(kill=first_shard)
        before = worker_lost()
        assert main([
            "run", EXAMPLE_CONFIG, "--backend", "process", "--workers", "2",
            "--output", str(process_out),
        ]) == 0
        assert worker_lost() - before == 1
        serial, process = (json.loads(path.read_text()) for path in (serial_out, process_out))
        for field in ("tables", "provenance"):
            assert process[field] == serial[field], field
