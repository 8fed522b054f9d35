"""Threaded HTTP scoring server (stdlib ``http.server`` + ``socketserver``).

Request handling is decoupled from accepting: the listener thread only
enqueues accepted connections into a **bounded** queue, and a fixed pool of
worker threads drains it.  Under overload the queue fills and new
connections are rejected immediately with a structured ``503`` JSON body
(backpressure, with a ``Retry-After`` hint) instead of piling up unbounded.
Every error path returns a JSON ``{"error": {"code", "message",
"request_id"}}`` document — never a stack trace.

Endpoints:

* ``GET /`` / ``GET /healthz`` — liveness + model descriptor.
* ``GET /model`` — the model descriptor alone.
* ``GET /metrics`` — JSON snapshot of the server's metrics registry
  (request counts, latency and decoded-bytes histograms, queue-depth
  gauge, rejections).
* ``POST /score`` — softmax field(s) in, per-segment scores out (see
  :mod:`repro.serve.protocol` for the accepted encodings).

Every socket read of a connection waits at most :data:`READ_TIMEOUT_S`
seconds, so a stalled client cannot hold a worker: a stalled request line
or header closes the connection, and a stalled ``/score`` body answers a
structured ``408`` (``request_timeout``) naming the deadline.
A ``/score`` body must declare its ``Content-Length`` (411 otherwise) and
stay within ``max_request_bytes`` (413 otherwise, after a bounded drain).
The handler then hands the socket's stream to
:func:`~repro.serve.protocol.parse_score_request`, which checks the
npy/npz headers before allocating (an npz archive's declared sizes against
the same cap) and reads an npy body straight into the field — the body is
never held as ``bytes``.

Observability: every request is handled under a span of the server's
tracer (default: disabled) and assigned a ``req-<n>`` request id, echoed
in the ``X-Request-Id`` response header and in every structured error
body, so client logs correlate with server traces.  The metrics registry
is private to the server instance (pass a shared one to aggregate).

Extraction and scoring run in processes, one per handler thread: on a
few cores, threads running the softmax sweep's many small numpy calls
mostly wait on each other for the GIL.  Each handler thread is paired
with one forked scoring process and one anonymous shared mapping of
``max_request_bytes``, both made in :meth:`ScoringServer.__init__` before
any thread starts, so every child inherits the warm model and extractor
and the mapping needs no name and leaves nothing behind.  The handler
decodes a body straight into its mapping, then sends the child only
``(image_id, offset, shape, dtype, order)`` per frame over a pipe; the
child views the mapping without a copy, runs
:meth:`~repro.serve.service.ScoringService.score_frame` and sends back the
response dict, or the text of its ``ValueError`` (a 400 ``bad_input``).
Everything else — accepting, reading and decoding, deadlines,
backpressure, request ids, spans, ``/metrics`` and responses — stays in
the server's own process.  A child that dies mid-request costs that
request a structured ``500`` (``worker_lost``, counted on
``serve.worker_lost.count``), and its thread forks a new one before it
takes the next connection.
"""

from __future__ import annotations

import itertools
import json
import mmap
import multiprocessing
import queue
import signal
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, HTTPServer
from multiprocessing.connection import wait
from typing import Dict, Optional

import numpy as np

from repro.obs import NULL_TRACER, MetricsRegistry
from repro.serve.protocol import DEFAULT_MAX_REQUEST_BYTES, RequestError, parse_score_request
from repro.serve.service import ScoringService, SharedFrames

#: Bucket bounds (bytes) of ``serve.request.decoded_bytes``: powers of four
#: from 64 KiB to 256 MiB, past the default request cap.
_DECODED_BYTES_BUCKETS = tuple(float(4 ** k * 1024) for k in range(3, 10))

#: How much of an oversized body is drained before responding, so
#: well-behaved clients receive the 413 JSON instead of a connection reset.
_DRAIN_LIMIT = 1024 * 1024

#: Read deadline of a scoring connection, in seconds: 5 s.  Each socket
#: read (request line, headers, each piece of a body) that waits longer
#: gives up.  It bounds how long a client that declares a body and stalls
#: holds its worker; a local client sends a 20 MB body in well under it.
READ_TIMEOUT_S = 5.0

#: Alignment (bytes) of each field in a scoring mapping, that of ``malloc``.
#: An npy header is longer than this, so the fields of a body always fit
#: in a mapping of the body's size.
_FIELD_ALIGN = 16

#: Held while a scoring process is forked and the parent's copy of its pipe
#: end is closed, so no child inherits another child's end of a pipe.
_FORK_LOCK = threading.Lock()

#: The open servers of this process.  A new scoring process closes what it
#: inherits of every one of them — listening sockets and the parent's ends
#: of all pipes — so each child sees EOF once the server closes its own
#: pipe, and no child keeps another server's port open.
_SERVERS = weakref.WeakSet()


class WorkerLost(Exception):
    """A scoring process died before answering."""


def _score_loop(conn, mapping: mmap.mmap, service: ScoringService, inherited) -> None:
    """A scoring process: score each frame the pipe names, until its EOF."""
    # Interrupts are the server's to handle; the child ends with its pipe.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for handle in inherited:
        handle.close()
    while True:
        try:
            image_id, offset, shape, dtype, order = conn.recv()
        except EOFError:
            return
        probs = np.ndarray(shape, dtype, buffer=mapping, offset=offset, order=order)
        try:
            reply = ("ok", service.score_frame(probs, image_id=image_id))
        except ValueError as exc:
            reply = ("invalid", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            reply = ("error", f"{type(exc).__name__}: {exc}")
        conn.send(reply)


class _ScoringProcess:
    """One handler thread's scoring process and the mapping it reads."""

    def __init__(self, size: int) -> None:
        self.mapping = mmap.mmap(-1, size)
        view = np.frombuffer(self.mapping, dtype=np.uint8)
        self._base = view.ctypes.data
        del view  # releases the export, so close() can unmap
        self.process = None
        self.conn = None

    def start(self, server: "ScoringServer") -> None:
        """Fork the scoring process (again, after a loss), reaping the old one.

        Forking is what hands the child the warm model without pickling
        it.  A fork after a loss happens while other threads run; the
        child then touches nothing they may hold locked, only numpy, its
        mapping and its pipe.
        """
        with _FORK_LOCK:
            if self.process is not None:
                self.conn.close()
                self.process.join()
            conn, child_conn = multiprocessing.Pipe()
            inherited = [conn]
            for live in _SERVERS:
                inherited.append(live.socket)
                inherited.extend(
                    scorer.conn for scorer in live._scorers if scorer.conn is not None
                )
            self.process = multiprocessing.get_context("fork").Process(
                target=_score_loop,
                args=(child_conn, self.mapping, server.service, inherited),
                name="score-process",
                daemon=True,
            )
            self.process.start()
            child_conn.close()
            self.conn = conn

    def allocate_fields(self):
        """An ``allocate`` for one request: its fields, one after another,
        at aligned offsets of the mapping."""
        used = 0

        def allocate(shape, dtype, order) -> np.ndarray:
            nonlocal used
            offset = -(-used // _FIELD_ALIGN) * _FIELD_ALIGN
            array = np.ndarray(shape, dtype, buffer=self.mapping, offset=offset, order=order)
            used = offset + array.nbytes
            return array

        return allocate

    def score_frame(self, probs: np.ndarray, image_id: str = "frame") -> Dict[str, object]:
        """Score a field of the mapping in the scoring process."""
        order = "C" if probs.flags.c_contiguous else "F"
        request = (image_id, probs.ctypes.data - self._base, probs.shape, probs.dtype, order)
        try:
            self.conn.send(request)
            # The sentinel fires when the child exits, whoever holds its pipe.
            if self.conn not in wait([self.conn, self.process.sentinel]):
                raise EOFError
            status, payload = self.conn.recv()
        except (EOFError, OSError):
            # Its pipe can close a moment before it can be reaped; wait for
            # that, so the worker thread sees it dead and forks a new one.
            self.process.kill()
            self.process.join()
            raise WorkerLost(
                f"the scoring process (pid {self.process.pid}) exited before answering"
            ) from None
        if status == "ok":
            return payload
        if status == "invalid":
            raise ValueError(payload)
        raise RuntimeError(payload)

    def stop(self) -> None:
        """Close the pipe (the child exits on its EOF), reap it, unmap."""
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - a wedged child
            self.process.kill()
            self.process.join()
        self.mapping.close()


class ScoringRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto the :class:`ScoringService`.

    One handler instance serves one connection on one worker thread
    (HTTP/1.0, one request per connection), so per-request attributes on
    ``self`` are single-threaded by construction; only the server's
    metrics/tracer — which are lock-guarded internally — are shared.
    ``scorer`` is the worker thread's own scoring process.
    """

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.0"

    #: Per-request id, allocated before dispatch; echoed in the
    #: ``X-Request-Id`` header and every structured error body.
    request_id = ""
    _response_status = 0

    def __init__(self, request, client_address, server, scorer: _ScoringProcess) -> None:
        self.scorer = scorer
        super().__init__(request, client_address, server)

    @property
    def timeout(self) -> float:
        """The read deadline :data:`READ_TIMEOUT_S`, which
        ``StreamRequestHandler.setup`` sets on the connection."""
        return READ_TIMEOUT_S

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------ ---
    def _send_json(self, status: int, payload: dict) -> None:
        self._response_status = status  # repro: allow[concurrency-shared-state] -- handler instance is per-connection, used by one worker thread
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        error = {"code": code, "message": message}
        if self.request_id:
            error["request_id"] = self.request_id
        self._send_json(status, {"error": error})

    # ------------------------------------------------------------------ ---
    def _dispatch(self, method: str, handler) -> None:
        """Run one request under its span, with id, latency and counters."""
        server = self.server
        self.request_id = server.next_request_id()  # repro: allow[concurrency-shared-state] -- handler instance is per-connection, used by one worker thread
        start = time.perf_counter()  # repro: allow[det-wallclock] -- request latency telemetry, never part of response payloads
        with server.tracer.span(
            "request", method=method, path=self.path, request_id=self.request_id
        ) as span:
            handler()
            span.set(status=self._response_status)
        elapsed = time.perf_counter() - start  # repro: allow[det-wallclock] -- request latency telemetry, never part of response payloads
        metrics = server.metrics
        metrics.counter("serve.requests.count").inc()
        if self._response_status >= 400:
            metrics.counter("serve.requests.errors").inc()
        metrics.histogram("serve.request.latency_seconds").observe(elapsed)

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET", self._handle_get)

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._dispatch("POST", self._handle_post)

    def _handle_get(self) -> None:
        service: ScoringService = self.server.service
        if self.path in ("/", "/healthz"):
            self._send_json(200, {"status": "ok", **service.info()})
        elif self.path == "/model":
            self._send_json(200, service.info())
        elif self.path == "/metrics":
            self._send_json(200, self.server.metrics.snapshot())
        else:
            self._send_error_json(404, "not_found", f"unknown path {self.path!r}")

    def _handle_post(self) -> None:
        if self.path != "/score":
            self._send_error_json(404, "not_found", f"unknown path {self.path!r}")
            return
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self._send_error_json(411, "length_required", "Content-Length is required")
            return
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            self._send_error_json(400, "bad_length", f"invalid Content-Length {raw_length!r}")
            return
        max_bytes = self.server.max_request_bytes
        if length > max_bytes:
            # Drain a bounded amount so the client sees the response instead
            # of a reset, then report the limit.
            try:
                self.rfile.read(min(length, _DRAIN_LIMIT))
            except OSError:
                pass
            self._send_error_json(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the limit of {max_bytes}",
            )
            return
        image_id = self.headers.get("X-Image-Id") or "frame"
        service: ScoringService = self.server.service
        try:
            # The decoder reads the body from the socket straight into the
            # field(s) in the scoring process's mapping; max_bytes also caps
            # what an npz archive inflates to.
            frames = parse_score_request(
                self.headers.get("Content-Type"),
                self.rfile,
                length,
                default_image_id=image_id,
                max_bytes=max_bytes,
                allocate=self.scorer.allocate_fields(),
            )
            self.server.metrics.histogram("serve.request.decoded_bytes").observe(
                sum(probs.nbytes for _, probs in frames)
            )
            result = service.score_frames(SharedFrames(frames, self.scorer.score_frame))
        except RequestError as exc:
            self._send_error_json(exc.status, exc.code, exc.message)
            return
        except TimeoutError:
            self.server.metrics.counter("serve.timeouts.count").inc()
            self._send_error_json(
                408,
                "request_timeout",
                f"request body stalled past the {READ_TIMEOUT_S:g} s read deadline",
            )
            return
        except ValueError as exc:
            # The extractor's numerical validation (shape/row-sum/classes).
            self._send_error_json(400, "bad_input", str(exc))
            return
        except WorkerLost as exc:
            self.server.metrics.counter("serve.worker_lost.count").inc()
            self._send_error_json(500, "worker_lost", str(exc))
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(
                500, "internal_error", f"{type(exc).__name__}: {exc}"
            )
            return
        self._send_json(200, result)


class ScoringServer(HTTPServer):
    """HTTP server with a bounded request queue, handler threads and one
    scoring process per thread.

    Parameters
    ----------
    service:
        The :class:`ScoringService` to expose.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see :attr:`url`).
    workers:
        Number of long-lived handler threads (>= 1), each paired with its
        own forked scoring process and a shared mapping of
        ``max_request_bytes``; at most this many requests are extracted
        and scored at once.
    queue_depth:
        Bound on accepted-but-unhandled connections (>= 1).  When full, new
        connections get an immediate ``503`` (backpressure) instead of
        queueing unboundedly.
    max_request_bytes:
        Cap on a request body, enforced before reading it, and on the bytes
        the body decodes to, enforced from the npy/npz headers before
        anything is allocated (413 beyond either).
    verbose:
        Enable stdlib per-request logging (quiet by default).
    tracer:
        A :class:`repro.obs.Tracer` recording one span per request
        (default: the shared no-op tracer — zero cost).
    """

    allow_reuse_address = True

    def __init__(
        self,
        service: ScoringService,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        queue_depth: int = 16,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        verbose: bool = False,
        tracer: Optional[object] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            # Queue(maxsize=0) would mean *unbounded*, the opposite of
            # backpressure — reject it instead of silently flipping meaning.
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_request_bytes < 1:
            raise ValueError(f"max_request_bytes must be >= 1, got {max_request_bytes}")
        self.service = service
        self.max_request_bytes = int(max_request_bytes)
        self.verbose = bool(verbose)
        #: The registry behind ``GET /metrics``, private to this server.
        self.metrics = MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Monotonic per-server request-id sequence (``next()`` is atomic in
        #: CPython, so the listener and worker threads can all draw from it).
        self._request_ids = itertools.count(1)
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue(maxsize=queue_depth)
        self._workers = []
        self._scorers = []
        # Pre-create the serving instruments so /metrics shows the full
        # contract (latency histogram, queue gauge, rejection and timeout
        # counters) from the first scrape, not only after traffic has arrived.
        self.metrics.counter("serve.requests.count")
        self.metrics.counter("serve.requests.errors")
        self.metrics.counter("serve.rejected.count")
        self.metrics.counter("serve.timeouts.count")
        self.metrics.counter("serve.worker_lost.count")
        self.metrics.gauge("serve.queue.depth")
        self.metrics.histogram("serve.request.latency_seconds")
        self.metrics.histogram("serve.request.decoded_bytes", _DECODED_BYTES_BUCKETS)
        super().__init__((host, port), ScoringRequestHandler)
        with _FORK_LOCK:
            _SERVERS.add(self)
        # Every scoring process is forked before any thread starts.
        for _ in range(workers):
            scorer = _ScoringProcess(self.max_request_bytes)
            scorer.start(self)
            self._scorers.append(scorer)
        for index, scorer in enumerate(self._scorers):
            thread = threading.Thread(
                target=self._worker_loop, args=(scorer,), name=f"score-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    def next_request_id(self) -> str:
        """Allocate the next ``req-<n>`` id (thread-safe)."""
        return f"req-{next(self._request_ids)}"

    # ------------------------------------------------------------------ ---
    @property
    def url(self) -> str:
        """Base URL of the bound socket (resolves ephemeral ports)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address):
        """Enqueue the accepted connection; reject with 503 when saturated."""
        try:
            self._queue.put_nowait((request, client_address))
        except queue.Full:
            self._reject(request)
            self.shutdown_request(request)
            return
        self.metrics.gauge("serve.queue.depth").set(self._queue.qsize())

    def _reject(self, request) -> None:
        """Raw 503 on the accepted socket (no handler thread available).

        The backpressure contract: a ``Retry-After`` hint (the queue drains
        in well under a second per slot) and a request id in both the
        ``X-Request-Id`` header and the error body, so rejected calls are
        correlatable even though no handler span ever ran.
        """
        request_id = self.next_request_id()
        self.metrics.counter("serve.rejected.count").inc()
        body = json.dumps(
            {"error": {"code": "overloaded",
                       "message": "request queue is full; retry later",
                       "request_id": request_id}}
        ).encode("utf-8")
        head = (
            "HTTP/1.0 503 Service Unavailable\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Retry-After: 1\r\n"
            f"X-Request-Id: {request_id}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            request.sendall(head + body)
        except OSError:
            pass

    def _worker_loop(self, scorer: _ScoringProcess) -> None:
        while True:
            item = self._queue.get()
            self.metrics.gauge("serve.queue.depth").set(self._queue.qsize())
            if item is None:
                return
            request, client_address = item
            try:
                self.RequestHandlerClass(request, client_address, self, scorer)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            if not scorer.process.is_alive():
                scorer.start(self)

    def handle_error(self, request, client_address):
        if self.verbose:
            super().handle_error(request, client_address)

    def close(self) -> None:
        """Stop the workers, reap their scoring processes and close the
        listening socket."""
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=5)
        for scorer in self._scorers:
            scorer.stop()
        with _FORK_LOCK:
            _SERVERS.discard(self)
        self.server_close()


__all__ = [
    "READ_TIMEOUT_S",
    "ScoringRequestHandler",
    "ScoringServer",
]
