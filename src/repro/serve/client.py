"""Minimal stdlib client helpers for the scoring server.

Used by the tests, the benchmark and the CI smoke script; also a reference
for how to talk to the server from any HTTP client.

:func:`score_frame` sends a field with no copy of its data: the request
body is the ``.npy`` header followed by the array's own buffer, byte for
byte what ``numpy.save`` writes, with an explicit ``Content-Length``.
"""

from __future__ import annotations

import io
import json
import os
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Connect/read timeout applied when callers pass ``timeout=None`` — a
#: client helper must never hang forever on a wedged server.
DEFAULT_TIMEOUT = 60.0

#: Exponential-backoff base (seconds) for opt-in 503 retries.
RETRY_BACKOFF_BASE = 0.25

#: Cap on any single retry delay, including server-suggested ``Retry-After``.
RETRY_BACKOFF_CAP = 10.0


def _npy_parts(array: np.ndarray) -> List[object]:
    """``[npy header, the array's own bytes]``: the ``numpy.save`` bytes of
    ``array`` in two parts, without copying the data.

    ``numpy.save`` writes a C- or F-contiguous array's memory as it lies
    (the header's ``fortran_order`` names which); only other layouts are
    copied, into C order, as ``numpy.save`` would write them.
    """
    array = np.asarray(array)
    if not (array.flags.c_contiguous or array.flags.f_contiguous):
        array = np.ascontiguousarray(array)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(array)
    )
    # The memory-order ravel of a contiguous array is a view; its uint8 view
    # exposes the bytes of any dtype, big-endian included.
    return [header.getvalue(), memoryview(array.ravel(order="K").view(np.uint8))]


def _jitter_fraction() -> float:
    """Retry jitter in ``[0, 0.5)`` drawn from ``os.urandom``.

    Backoff desynchronisation wants real entropy and must not touch any
    seeded RNG stream (or the stdlib global RNG) — wall-clock scheduling
    noise never enters scored results.
    """
    return int.from_bytes(os.urandom(2), "big") / 131072.0


def _retry_delay(attempt: int, retry_after: Optional[str]) -> float:
    """Seconds to sleep before retry *attempt* (0-based).

    A parseable ``Retry-After`` header is honoured (the server knows its
    queue better than we do), otherwise exponential backoff from
    :data:`RETRY_BACKOFF_BASE`; either way the delay is capped at
    :data:`RETRY_BACKOFF_CAP` and jittered up to +50%.
    """
    delay = None
    if retry_after is not None:
        try:
            delay = float(retry_after)
        except ValueError:
            delay = None
    if delay is None or delay < 0:
        delay = RETRY_BACKOFF_BASE * (2 ** attempt)
    return min(RETRY_BACKOFF_CAP, delay) * (1.0 + _jitter_fraction())


def _is_torn_connection(reason: object) -> bool:
    """True when a URLError wraps the server closing the socket on us."""
    return isinstance(reason, (BrokenPipeError, ConnectionResetError))


def _request(
    url: str,
    data: Optional[Sequence[object]] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    retries: int = 0,
) -> Dict[str, object]:
    """One JSON request; opt-in retry (``retries`` > 0) on 503 backpressure.

    ``timeout=None`` is normalised to :data:`DEFAULT_TIMEOUT` — the helpers
    never wait forever on a connect or read.  Retries cover 503 (the
    server's explicit "try again later") and connections the server tears
    down mid-request (broken pipe / reset): a backpressuring server that
    rejects at accept time closes the socket while a large body is still in
    flight, which surfaces client-side as ``URLError(EPIPE)`` rather than a
    readable 503 response.  Every other failure propagates immediately.
    """
    if timeout is None:
        timeout = DEFAULT_TIMEOUT
    attempt = 0
    while True:
        request = urllib.request.Request(url, data=data, headers=headers or {})
        retry_after: Optional[str] = None
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code != 503 or attempt >= retries:
                raise
            retry_after = exc.headers.get("Retry-After") if exc.headers else None
            exc.close()
        except urllib.error.URLError as exc:
            if attempt >= retries or not _is_torn_connection(exc.reason):
                raise
        time.sleep(_retry_delay(attempt, retry_after))
        attempt += 1


def health(
    base_url: str, timeout: Optional[float] = DEFAULT_TIMEOUT, retries: int = 0
) -> Dict[str, object]:
    """GET /healthz."""
    return _request(
        f"{base_url.rstrip('/')}/healthz", timeout=timeout, retries=retries
    )


def score_frame(
    base_url: str,
    probs: np.ndarray,
    image_id: Optional[str] = None,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    retries: int = 0,
) -> Dict[str, object]:
    """POST one softmax field as npy bytes; returns the scored frame dict.

    The body is the npy header followed by the field's own buffer, so the
    field is not copied on the way to the socket.  The explicit
    ``Content-Length`` keeps urllib from switching the two-part body to
    chunked encoding, which the server refuses (411).

    The server always answers with a ``{"frames": [...], "n_frames": N}``
    envelope; this helper unwraps the single frame.  ``retries`` opts into
    backoff-with-jitter retries on 503 backpressure responses.
    """
    parts = _npy_parts(probs)
    headers = {
        "Content-Type": "application/x-npy",
        "Content-Length": str(sum(len(part) for part in parts)),
    }
    if image_id is not None:
        headers["X-Image-Id"] = image_id
    response = _request(
        f"{base_url.rstrip('/')}/score",
        data=parts,
        headers=headers,
        timeout=timeout,
        retries=retries,
    )
    return response["frames"][0]


def wait_until_ready(
    base_url: str, timeout: float = 30.0, interval: float = 0.1
) -> Dict[str, object]:
    """Poll /healthz until it answers; raises TimeoutError at the deadline."""
    deadline = time.monotonic() + timeout  # repro: allow[det-wallclock] -- readiness-poll deadline, not part of any scored result
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:  # repro: allow[det-wallclock] -- readiness-poll deadline, not part of any scored result
        try:
            return health(base_url, timeout=min(5.0, timeout))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            last_error = exc
            time.sleep(interval)
    raise TimeoutError(f"server at {base_url} not ready after {timeout}s: {last_error}")


__all__ = [
    "DEFAULT_TIMEOUT",
    "RETRY_BACKOFF_BASE",
    "RETRY_BACKOFF_CAP",
    "health",
    "score_frame",
    "wait_until_ready",
]
