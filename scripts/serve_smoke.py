"""CI smoke for the online scoring service (``python -m repro serve``).

Exercises the real subprocess path end to end:

1. computes the batch reference (``Runner.fit`` + ``Runner.score``) on the
   committed disk fixture through a store at ``--cache-dir``;
2. starts ``python -m repro serve --model <config> --port 0`` as a
   subprocess against the *same* store — the server must load the persisted
   model (cache hit), not refit;
3. POSTs the first validation frame as npy and asserts the response is
   bitwise identical to the batch reference frame;
4. POSTs the first two validation frames as one npz archive and asserts
   the response is bitwise identical to the reference's first two frames;
5. POSTs a compressed all-zero npz that declares twice the server's
   decoded-bytes cap and asserts a 413 ``payload_too_large``, then a
   healthy ``/healthz``;
6. declares a 1000-byte body, sends 6 bytes and holds the socket, and
   asserts a 408 ``request_timeout`` within the server's read deadline
   (``READ_TIMEOUT_S``, which this step waits out), then a healthy
   ``/healthz``;
7. reads the server's child pids (one scoring process per worker), shuts
   the server down, and verifies a clean exit that leaves none of them
   running.

Exit code 0 on success, 1 with a one-line diagnostic on any failure.

Usage: PYTHONPATH=src python scripts/serve_smoke.py --cache-dir DIR
"""

from __future__ import annotations

import argparse
import io
import json
import re
import select
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
import zipfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.config import ExperimentConfig  # noqa: E402
from repro.api.runner import Runner  # noqa: E402
from repro.serve import (  # noqa: E402
    DEFAULT_MAX_REQUEST_BYTES,
    score_frame,
    wait_until_ready,
)
from repro.serve.server import READ_TIMEOUT_S  # noqa: E402
from repro.store import ResultStore  # noqa: E402

CONFIG_PATH = REPO_ROOT / "examples" / "configs" / "metaseg_serve.json"


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


#: Hard bound on waiting for the server's startup banner.
STARTUP_TIMEOUT = 60.0


def next_line(process, deadline: float):
    """One stdout line within the deadline; ``None`` on expiry, ``""`` on EOF.

    A bare ``readline()`` would block CI forever on a server that wedges
    before printing anything; bounding the wait with ``select`` keeps every
    read under the caller's deadline.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None
    ready, _, _ = select.select([process.stdout], [], [], remaining)
    if not ready:
        return None
    return process.stdout.readline()


def child_pids(pid: int) -> list:
    """The children of process ``pid``, from Linux ``/proc``."""
    pids = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        pids.extend(int(child) for child in (task / "children").read_text().split())
    return pids


def running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def post(url: str, body: bytes, content_type: str):
    """POST raw bytes; (status, parsed JSON body) without raising on 4xx/5xx."""
    request = urllib.request.Request(url, data=body, headers={"Content-Type": content_type})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def npz_body(frames) -> bytes:
    """(image_id, probs) pairs as one ``numpy.savez`` archive."""
    buffer = io.BytesIO()
    np.savez(buffer, **dict(frames))
    return buffer.getvalue()


def stalled_body(url: str):
    """Declare a 1000-byte npy body, send its 6-byte magic and hold the
    socket; (status line, parsed JSON body, seconds waited for the reply)."""
    address = urllib.parse.urlsplit(url)
    with socket.create_connection(
        (address.hostname, address.port), timeout=READ_TIMEOUT_S + 10.0
    ) as sock:
        sock.sendall(
            b"POST /score HTTP/1.0\r\nContent-Type: application/x-npy\r\n"
            b"Content-Length: 1000\r\n\r\n\x93NUMPY"
        )
        start = time.monotonic()
        response = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            response += chunk
        waited = time.monotonic() - start
    head, _, body = response.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0].decode("latin-1"), json.loads(body), waited


def zero_bomb(decoded_bytes: int) -> bytes:
    """A deflated npz whose one float64 member decodes to ``decoded_bytes``
    of zeros, written in 1 MiB pieces (the script never holds them)."""
    shape = (decoded_bytes // (8 * 1024 * 16), 1024, 16)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": shape}
    )
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        with archive.open("bomb.npy", "w", force_zip64=True) as member:
            member.write(header.getvalue())
            piece = bytes(1 << 20)
            for _ in range(shape[0] * 1024 * 16 * 8 // len(piece)):
                member.write(piece)
    return buffer.getvalue()


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cache-dir", required=True,
        help="scratch result-store root shared by the reference and the server",
    )
    args = parser.parse_args(argv)

    config_dict = json.loads(CONFIG_PATH.read_text())
    runner = Runner(store=ResultStore(args.cache_dir))
    model = runner.fit(config_dict)
    reference = runner.score(config_dict, model=model)

    config = ExperimentConfig.from_dict(config_dict)
    config.validate()
    resolved = runner.resolve(config)
    samples = list(resolved.dataset.val_samples())[:2]
    fields = [
        (sample.image_id, np.array(resolved.network.predict_probabilities(sample.labels, index=i)))
        for i, sample in enumerate(samples)
    ]
    sample, probs = samples[0], fields[0][1]

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--model", str(CONFIG_PATH),
            "--port", "0",
            "--workers", "2",
            "--cache-dir", args.cache_dir,
        ],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    children = []
    try:
        # The server prints "model: cache hit (...)" then "serving on URL".
        url = None
        saw_hit = False
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            line = next_line(process, deadline)
            if line is None:
                return fail(
                    f"server produced no startup output within {STARTUP_TIMEOUT:.0f}s"
                )
            if not line:
                break  # EOF: the server exited before announcing its URL
            sys.stdout.write(f"  server: {line}")
            if "model: cache hit" in line:
                saw_hit = True
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                url = match.group(1)
                break
        if url is None:
            return fail("server never printed its serving URL")
        if not saw_hit:
            return fail("server refit the model instead of loading it from the store")
        wait_until_ready(url, timeout=30)
        scored = score_frame(url, probs, image_id=sample.image_id)
        expected = reference["frames"][0]
        if json.dumps(scored, sort_keys=True) != json.dumps(expected, sort_keys=True):
            return fail("server response diverges from the batch Runner.score reference")
        print(f"serve smoke: bitwise parity on {sample.image_id} "
              f"({scored['n_segments']} segments)")

        status, batch = post(url + "/score", npz_body(fields), "application/x-npz")
        expected = {"frames": reference["frames"][:2], "n_frames": 2}
        if status != 200:
            return fail(f"two-frame npz request answered {status}: {batch}")
        if json.dumps(batch, sort_keys=True) != json.dumps(expected, sort_keys=True):
            return fail("two-frame npz response diverges from the batch Runner.score reference")
        print(f"serve smoke: bitwise parity on a two-frame npz "
              f"({', '.join(image_id for image_id, _ in fields)})")

        bomb = zero_bomb(2 * DEFAULT_MAX_REQUEST_BYTES)
        status, error = post(url + "/score", bomb, "application/x-npz")
        if status != 413 or error.get("error", {}).get("code") != "payload_too_large":
            return fail(f"compressed npz bomb answered {status}: {error}")
        health = json.loads(urllib.request.urlopen(url + "/healthz", timeout=30).read())
        if health.get("status") != "ok":
            return fail(f"/healthz not ok after the npz bomb: {health}")
        print(f"serve smoke: {len(bomb)}-byte npz bomb refused with 413 "
              f"({error['error']['message']}); /healthz ok")

        try:
            status_line, error, waited = stalled_body(url)
        except OSError as exc:
            return fail(f"stalled body got no reply within the read deadline: {exc}")
        if " 408 " not in status_line or error.get("error", {}).get("code") != "request_timeout":
            return fail(f"stalled body answered {status_line!r}: {error}")
        health = json.loads(urllib.request.urlopen(url + "/healthz", timeout=30).read())
        if health.get("status") != "ok":
            return fail(f"/healthz not ok after the stalled body: {health}")
        print(f"serve smoke: stalled body answered 408 after {waited:.1f} s "
              f"({error['error']['message']}); /healthz ok")

        # Introspection contract: /healthz answers 200 with the model
        # descriptor, /metrics exposes the serving instruments.
        health = json.loads(urllib.request.urlopen(url + "/healthz", timeout=30).read())
        if health.get("status") != "ok":
            return fail(f"/healthz did not report ok: {health}")
        metrics = json.loads(urllib.request.urlopen(url + "/metrics", timeout=30).read())
        counters = metrics.get("counters", {})
        if counters.get("serve.requests.count", 0) < 1:
            return fail(f"/metrics shows no handled requests: {counters}")
        latency = metrics.get("histograms", {}).get("serve.request.latency_seconds")
        if not latency or sum(latency["counts"]) != latency["count"]:
            return fail(f"/metrics latency histogram is malformed: {latency}")
        if "serve.queue.depth" not in metrics.get("gauges", {}):
            return fail("/metrics lacks the serve.queue.depth gauge")
        print(f"serve smoke: /healthz ok, /metrics sane "
              f"({counters['serve.requests.count']} requests, "
              f"latency count {latency['count']})")

        children = child_pids(process.pid)
        if len(children) != 2:
            return fail(f"server with 2 workers runs {len(children)} child processes: {children}")
    finally:
        # Graceful path first (SIGINT -> KeyboardInterrupt -> server.close()),
        # escalating only if the server hangs.
        import signal

        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            print("serve smoke: server ignored SIGINT for 15s, killing it",
                  file=sys.stderr)
            process.kill()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                print("serve smoke: server survived SIGKILL wait; "
                      "abandoning the process", file=sys.stderr)
    if process.returncode != 0:
        return fail(f"server exited with unexpected status {process.returncode}")
    left = [pid for pid in children if running(pid)]
    if left:
        return fail(f"scoring processes {left} outlived the server")
    print(f"serve smoke: clean shutdown, scoring processes {children} gone")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
