"""The benchmark workloads: two Table I batch runs and closed-loop serving.

Every workload builds its inputs from the seed it is given and nothing
else.  A workload object is driven by ``run.py`` in four steps: ``setup``
(timed, repeated, the last one kept), ``measure`` (untraced, or alternating
untraced and traced operations), ``check`` (reference comparisons that are
too slow to run per operation) and ``teardown``.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ledger import BATCH_STAGES, SERVE_STAGE, Ledger

from repro.api.config import ExperimentConfig
from repro.api.runner import Runner
from repro.io.fixture import disk_config_payload, write_disk_fixture
from repro.obs import NULL_TRACER
from repro.serve import ScoringServer, ScoringService, score_frame, wait_until_ready

#: Batch runs per measurement even when ``--seconds`` is shorter.
MIN_BATCH_OPS = 3
#: Client deadline of one scoring request; a request that takes longer fails.
REQUEST_TIMEOUT_S = 30.0
#: Length of one untraced or traced block when a traced serve run alternates.
SERVE_PHASE_S = 2.5

TABLE1 = {
    "meta_models": {"classifiers": ["logistic"], "regressors": ["linear"]},
    "evaluation": {"n_runs": 10, "train_fraction": 0.8},
    "execution": {"backend": "serial"},
}


@dataclass
class Measurement:
    """What one measured window produced."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: End-to-end metrics of the untraced operations.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Untraced and traced operation latencies (seconds), for the overhead.
    untraced_s: List[float] = field(default_factory=list)
    traced_s: List[float] = field(default_factory=list)
    #: Frames and operations that ran traced.
    traced_frames: int = 0
    traced_ops: int = 0
    segments_per_frame: float = 0.0
    serve: Dict[str, float] = field(default_factory=dict)
    #: Printed metrics outside BENCHMARK.json: name -> (value, unit).
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _highest_supported_percentile(n: int) -> Optional[int]:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100.0 >= 10:
            return pct
    return None


# ---------------------------------------------------------------- batch ---
class BatchWorkload:
    """A Table I run (``Runner.run``, kind ``metaseg``) repeated back to back.

    One operation is one full run: resolve, extract, and the ten-split
    evaluate.  Every run's ``to_json`` must equal the first one's.
    """

    stages = BATCH_STAGES

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = int(seed)
        self.out_dir = out_dir
        self.config: Dict[str, object] = {}
        self.reference: Optional[str] = None
        self.last_report = None

    def inputs(self) -> Dict[str, object]:
        data = self.config["data"]
        provenance = self.last_report.provenance if self.last_report else {}
        return {
            "resolution": f"{self.height}x{self.width}",
            "frames_per_run": provenance.get("n_images", self.n_frames),
            "segments_per_run": provenance.get("n_segments"),
            "dataset": data["dataset"],
            "network": self.config["network"]["profile"],
        }

    def _operation(self, measurement: Measurement, runner: Runner) -> Optional[float]:
        measurement.attempted += 1
        start = time.perf_counter()
        try:
            report = runner.run(self.config)
        except Exception as exc:  # an operation failure is counted, not fatal
            measurement.fail(f"run raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        text = report.to_json()
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            measurement.fail("report to_json differs from the first run of this seed")
            return None
        self.last_report = report
        return elapsed

    def measure(self, seconds: float, ledger: Optional[Ledger]) -> Measurement:
        measurement = Measurement()
        start = time.perf_counter()
        ops = 0
        while time.perf_counter() - start < seconds or ops < MIN_BATCH_OPS:
            traced = ledger is not None and ops % 2 == 1
            if traced:
                ledger.install()
                runner = Runner(tracer=ledger.tracer)
            else:
                runner = Runner()
            try:
                elapsed = self._operation(measurement, runner)
            finally:
                if traced:
                    ledger.uninstall()
            ops += 1
            if elapsed is None:
                continue
            if traced:
                measurement.traced_s.append(elapsed)
                measurement.traced_ops += 1
                measurement.traced_frames += self.n_frames
            else:
                measurement.untraced_s.append(elapsed)
        if measurement.untraced_s:
            run_s = statistics.median(measurement.untraced_s)
            measurement.metrics = {
                "frames_per_s": self.n_frames / run_s,
                "latency_p50_ms": 1e3 * run_s,
            }
            measurement.notes.append(
                f"latency = one full Runner.run ({self.n_frames} frames, resolve+extract"
                f"+evaluate), median of {len(measurement.untraced_s)} untraced runs"
            )
        if self.last_report is not None:
            provenance = self.last_report.provenance
            measurement.segments_per_frame = provenance["n_segments"] / provenance["n_images"]
        return measurement

    def check(self, measurement: Measurement) -> None:
        report = self.last_report
        if report is None:
            return
        measurement.attempted += 1
        provenance = report.provenance
        problems = []
        if provenance.get("n_images") != self.n_frames:
            problems.append(f"n_images {provenance.get('n_images')} != {self.n_frames}")
        if not provenance.get("n_segments"):
            problems.append("no segments extracted")
        for name in ("classification", "regression"):
            rows = report.tables.get(name) or []
            if not rows or not all(
                math.isfinite(row["mean"]) and math.isfinite(row["std"]) for row in rows
            ):
                problems.append(f"table {name!r} is empty or not finite")
        if problems:
            measurement.fail("report sanity: " + "; ".join(problems))

    def teardown(self) -> None:
        pass


class SimWorkload(BatchWorkload):
    """``cityscapes_like`` at 96x192 through the simulated ``mobilenetv2``."""

    name = "metaseg_sim_96x192"
    height, width, n_frames = 96, 192, 48

    def setup(self) -> None:
        # There is no input file to prepare: set-up is the cold first run
        # (lazy imports, first-call costs), whose report becomes the
        # determinism reference of the measured runs.
        self.config = {
            "kind": "metaseg",
            "name": "perfbench-sim",
            "seed": self.seed,
            "data": {
                "dataset": "cityscapes_like", "n_train": 0, "n_val": self.n_frames,
                "height": self.height, "width": self.width,
            },
            "network": {"profile": "mobilenetv2"},
            **TABLE1,
        }
        self.reference = Runner().run(self.config).to_json()


class DumpWorkload(BatchWorkload):
    """``cityscapes_disk`` + ``softmax_dump`` at 512x1024, written at set-up."""

    name = "metaseg_dump_512x1024"
    height, width, n_frames = 512, 1024, 4

    def setup(self) -> None:
        # The tree holds label PNGs plus float64 npy softmax dumps of the
        # simulated network, generated from the seed; resolve checks that
        # frames and dumps match.
        self.root = self.out_dir / "dump_tree"
        shutil.rmtree(self.root, ignore_errors=True)
        write_disk_fixture(
            self.root, seed=self.seed, n_train=0, n_val=self.n_frames,
            height=self.height, width=self.width, write_images=False,
        )
        config = disk_config_payload(self.root, seed=self.seed, name="perfbench-dump")
        config.update(TABLE1)
        Runner().resolve(ExperimentConfig.from_dict(config))
        self.config = config
        self.reference = None

    def check(self, measurement: Measurement) -> None:
        super().check(measurement)
        if self.last_report is None:
            return
        # The dump report must equal the in-memory run of the same seed.
        memory = dict(self.config)
        memory["data"] = {
            "dataset": "cityscapes_like", "n_train": 0, "n_val": self.n_frames,
            "height": self.height, "width": self.width,
        }
        memory["network"] = {"profile": "mobilenetv2"}
        measurement.attempted += 1
        reference = Runner().run(memory)
        if reference.tables != self.last_report.tables:
            measurement.fail("dump tables differ from the in-memory run of the same seed")
        if reference.provenance != self.last_report.provenance:
            measurement.fail("dump provenance differs from the in-memory run of the same seed")

    def teardown(self) -> None:
        shutil.rmtree(self.out_dir / "dump_tree", ignore_errors=True)


# ---------------------------------------------------------------- serve ---
def _get_metrics(url: str) -> Dict[str, Dict[str, object]]:
    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _request_counts(before: dict, after: dict) -> tuple:
    """(handled, rejected) requests between two ``/metrics`` snapshots.

    The first snapshot's own GET is counted after it was taken, so it is
    taken off the handled count.
    """
    counters = [snapshot["counters"] for snapshot in (before, after)]
    handled = counters[1]["serve.requests.count"] - counters[0]["serve.requests.count"] - 1
    rejected = counters[1]["serve.rejected.count"] - counters[0]["serve.rejected.count"]
    return handled, rejected


class ServeWorkload:
    """Closed-loop scoring of 256x512 float64 npy fields over HTTP."""

    name = "serve_256x512"
    stages = (SERVE_STAGE,)
    height, width = 256, 512
    n_fit_frames, n_client_frames, n_clients, n_workers = 8, 4, 2, 2

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = int(seed)
        self.out_dir = out_dir
        self.server: Optional[ScoringServer] = None
        self.thread: Optional[threading.Thread] = None
        self.segments: List[int] = []

    def setup(self) -> None:
        # Fit the serving model (Runner.fit extracts the fit frames with
        # ground truth and fits logistic/linear), generate the client frames
        # from the unseen train split, score them in-process as the expected
        # responses, and start a two-worker server.
        config = {
            "kind": "metaseg",
            "name": "perfbench-serve",
            "seed": self.seed,
            "data": {
                "dataset": "cityscapes_like", "n_train": self.n_client_frames,
                "n_val": self.n_fit_frames, "height": self.height, "width": self.width,
            },
            "network": {"profile": "mobilenetv2"},
            **TABLE1,
        }
        runner = Runner()
        model = runner.fit(config)
        resolved = runner.resolve(ExperimentConfig.from_dict(config))
        self.frames = []
        for index in range(self.n_client_frames):
            sample = resolved.dataset.train_sample(index)
            probs = resolved.network.predict_probabilities(
                sample.labels, index=self.n_fit_frames + index
            )
            self.frames.append((sample.image_id, probs))
        self.expected = [
            json.loads(json.dumps(model.score_frame(probs, image_id=image_id)))
            for image_id, probs in self.frames
        ]
        self.segments = [frame["n_segments"] for frame in self.expected]
        self.server = ScoringServer(ScoringService(model), workers=self.n_workers)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        wait_until_ready(self.server.url)

    def inputs(self) -> Dict[str, object]:
        return {
            "resolution": f"{self.height}x{self.width}",
            "frames_per_request": 1,
            "client_frames": self.n_client_frames,
            "segments_per_frame": self.segments,
            "fit_frames": self.n_fit_frames,
            "clients": self.n_clients,
            "server_workers": self.n_workers,
            "loop": "closed",
        }

    def _client(self, offset: int, deadline: float, out: List[tuple]) -> None:
        index = offset
        while time.perf_counter() < deadline:
            frame = index % len(self.frames)
            index += 1
            image_id, probs = self.frames[frame]
            start = time.perf_counter()
            try:
                response = score_frame(
                    self.server.url, probs, image_id=image_id, timeout=REQUEST_TIMEOUT_S
                )
                error = None
                if response != self.expected[frame]:
                    error = "response differs from FittedModel.score_frame"
            except urllib.error.HTTPError as exc:
                error = f"HTTP {exc.code}"
            except (urllib.error.URLError, OSError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            out.append((time.perf_counter() - start, error))

    def _phase(self, seconds: float) -> tuple:
        """Run the closed loop for *seconds*; (wall seconds, [(latency, error)])."""
        results: List[List[tuple]] = [[] for _ in range(self.n_clients)]
        deadline = time.perf_counter() + seconds
        start = time.perf_counter()
        clients = [
            threading.Thread(target=self._client, args=(k, deadline, results[k]))
            for k in range(self.n_clients)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        return time.perf_counter() - start, [item for part in results for item in part]

    def measure(self, seconds: float, ledger: Optional[Ledger]) -> Measurement:
        measurement = Measurement()
        before = _get_metrics(self.server.url)
        requests: List[tuple] = []
        latencies = {False: [], True: []}
        elapsed = 0.0
        traced = False
        while elapsed < seconds:
            phase_s = min(seconds - elapsed, SERVE_PHASE_S) if ledger is not None else seconds
            if traced:
                ledger.install()
                self.server.tracer = ledger.tracer
            try:
                phase_wall, results = self._phase(phase_s)
            finally:
                if traced:
                    self.server.tracer = NULL_TRACER
                    ledger.uninstall()
            elapsed += phase_wall
            requests.extend(results)
            latencies[traced].extend(latency for latency, error in results if error is None)
            if traced:
                measurement.traced_ops += len(results)
                measurement.traced_frames += len(results)
            if ledger is not None:
                traced = not traced
        after = self._settled_metrics(before, len(requests))

        measurement.attempted = len(requests)
        for latency, error in requests:
            if error is not None:
                measurement.fail(error)
        # A failed request misses every latency limit: it enters the
        # percentiles at the client deadline.
        all_latencies = [
            latency if error is None else REQUEST_TIMEOUT_S for latency, error in requests
        ]
        ok = len(requests) - measurement.failed
        measurement.untraced_s = latencies[False]
        measurement.traced_s = latencies[True]
        if all_latencies:
            p50 = statistics.median(all_latencies)
            measurement.metrics = {
                "frames_per_s": ok / max(elapsed, 1e-9),
                "latency_p50_ms": 1e3 * p50,
            }
            pct = _highest_supported_percentile(len(all_latencies))
            if pct is not None:
                tail_ms = 1e3 * _quantile(all_latencies, pct / 100.0)
                measurement.extra[f"latency_p{pct}_ms"] = (tail_ms, "ms")
            else:
                measurement.notes.append("no percentile above p50 has ten samples beyond it")
            measurement.extra.update({
                "requests_per_s": (len(requests) / max(elapsed, 1e-9), "1/s"),
                "requests_attempted": (len(requests), "count"),
                "requests_succeeded": (ok, "count"),
                "requests_failed": (measurement.failed, "count"),
            })
            measurement.notes.append(
                f"{len(requests)} requests from {self.n_clients} closed-loop clients; "
                f"a failed request enters the percentiles at the {REQUEST_TIMEOUT_S:.0f} s deadline"
            )
        self._cross_check(measurement, before, after, len(requests), all_latencies)
        measurement.segments_per_frame = statistics.mean(self.segments)
        return measurement

    def _settled_metrics(self, before: dict, n_requests: int) -> dict:
        """``/metrics`` once the server has counted every finished request.

        A worker bumps its counters just after the client got the response,
        so the last request can still be uncounted for a moment.
        """
        for _ in range(50):
            after = _get_metrics(self.server.url)
            handled, rejected = _request_counts(before, after)
            if handled + rejected >= n_requests:
                break
            time.sleep(0.02)
        return after

    def _cross_check(
        self, measurement: Measurement, before: dict, after: dict, n_requests: int,
        latencies: List[float],
    ) -> None:
        handled, rejected = _request_counts(before, after)
        if handled + rejected != n_requests:
            measurement.fail(
                f"server counted {handled} handled + {rejected} rejected requests, "
                f"client sent {n_requests}"
            )
        hist_before = before["histograms"]["serve.request.latency_seconds"]
        hist_after = after["histograms"]["serve.request.latency_seconds"]
        # The count also holds the first /metrics GET (well under 1 ms).
        count = hist_after["count"] - hist_before["count"] - 1
        server_ms = 1e3 * (hist_after["sum"] - hist_before["sum"]) / max(1, count)
        client_ms = 1e3 * statistics.mean(latencies) if latencies else 0.0
        measurement.serve = {
            "server_ms": server_ms,
            "wait_transport_ms": client_ms - server_ms,
            "rejected": float(rejected),
        }
        measurement.notes.append(
            f"server /metrics: {handled} handled, {rejected} rejected, mean server "
            f"latency {server_ms:.3f} ms vs client mean {client_ms:.3f} ms"
        )

    def check(self, measurement: Measurement) -> None:
        pass

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.close()
            self.thread.join(timeout=10)
            self.server = None
            self.thread = None


WORKLOADS: Dict[str, Callable[[int, Path], object]] = {
    SimWorkload.name: SimWorkload,
    DumpWorkload.name: DumpWorkload,
    ServeWorkload.name: ServeWorkload,
}
