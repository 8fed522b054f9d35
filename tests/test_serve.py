"""End-to-end tests for the online scoring service (repro.serve).

The hard gate: server-side scores are **bitwise identical** to the batch
``Runner.score`` reference on the committed disk fixture — for single-frame
npy requests, npz batches, and under concurrent clients.
Error paths must return structured JSON (never a stack trace), and a
saturated queue must answer 503 immediately (backpressure).
"""

import io
import json
import os
import pickle
import signal
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.api.config import ExperimentConfig
from repro.api.fitted import FittedModel
from repro.api.runner import Runner
from repro.serve import server as server_module
from repro.serve import (
    RequestError,
    ScoringServer,
    ScoringService,
    parse_score_request,
    score_frame,
    wait_until_ready,
)
from repro.store import ResultStore
from repro.utils.validation import check_probability_field

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "disk"


def _serve_config() -> dict:
    return {
        "kind": "metaseg",
        "name": "serve-fixture",
        "seed": 7,
        "data": {"dataset": "cityscapes_disk", "root": str(FIXTURE_ROOT)},
        "network": {
            "profile": "softmax_dump",
            "dump_root": str(FIXTURE_ROOT / "softmax"),
            "mmap": True,
        },
        "meta_models": {"classifiers": ["logistic"], "regressors": ["linear"]},
        "evaluation": {"n_runs": 2, "train_fraction": 0.8},
    }


def _post(url: str, body: bytes, content_type: str, headers: dict = None):
    """POST raw bytes; returns (status, parsed JSON body) without raising."""
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": content_type, **(headers or {})}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


@pytest.fixture(scope="module")
def fitted_model():
    return Runner().fit(_serve_config())


@pytest.fixture(scope="module")
def batch_reference(fitted_model):
    return Runner().score(_serve_config(), model=fitted_model)


@pytest.fixture(scope="module")
def val_frames():
    """The fixture's validation softmax fields as (image_id, probs) pairs."""
    runner = Runner()
    config = ExperimentConfig.from_dict(_serve_config())
    config.validate()
    resolved = runner.resolve(config)
    frames = []
    for index, sample in enumerate(resolved.dataset.val_samples()):
        probs = resolved.network.predict_probabilities(sample.labels, index=index)
        frames.append((sample.image_id, np.array(probs)))
    return frames


@pytest.fixture(scope="module")
def server(fitted_model):
    server = ScoringServer(
        ScoringService(fitted_model), port=0, workers=3, queue_depth=16
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    wait_until_ready(server.url)
    yield server
    server.shutdown()
    server.close()
    thread.join(timeout=5)


def npy_bytes(array) -> bytes:
    """One array as the raw ``.npy`` bytes ``numpy.save`` writes."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _parse(content_type: str, body: bytes, **kwargs):
    """parse_score_request over an in-memory body, as the server reads a socket."""
    return parse_score_request(content_type, io.BytesIO(body), len(body), **kwargs)


def _npz_bytes(frames):
    """(image_id, probs) pairs as an ``.npz`` archive, one member per frame."""
    buffer = io.BytesIO()
    np.savez(buffer, **dict(frames))
    return buffer.getvalue()


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


class TestModelPersistence:
    def test_fit_persists_and_reloads_bitwise(self, tmp_path, val_frames):
        store = ResultStore(tmp_path)
        first = Runner(store=store).fit(_serve_config())
        assert first.cache == {"hit": False, "key": first.cache["key"]}
        second = Runner(store=store).fit(_serve_config())
        assert second.cache["hit"] is True
        assert second.cache["key"] == first.cache["key"]
        assert _canon(first.to_state()) == _canon(second.to_state())
        image_id, probs = val_frames[0]
        assert _canon(first.score_frame(probs, image_id=image_id)) == _canon(
            second.score_frame(probs, image_id=image_id)
        )

    def test_state_round_trip_is_bitwise(self, fitted_model, val_frames):
        state = json.loads(json.dumps(fitted_model.to_state()))
        restored = FittedModel.from_state(state)
        assert _canon(json.loads(json.dumps(restored.to_state()))) == _canon(state)
        for image_id, probs in val_frames:
            assert _canon(restored.score_frame(probs, image_id=image_id)) == _canon(
                fitted_model.score_frame(probs, image_id=image_id)
            )

    def test_serve_refuses_stale_gradient_descent_state(self, tmp_path, fitted_model, capsys):
        """A state written before the Newton solver exits 2, not a traceback."""
        from repro.__main__ import main

        state = json.loads(json.dumps(fitted_model.to_state()))
        logistic = state["classifier"]["model"]
        assert logistic["type"] == "LogisticRegression"
        logistic["params"]["learning_rate"] = 1.0
        del logistic["converged"]
        key = "ab" * 32
        ResultStore(tmp_path).put(key, state)
        code = main(["serve", "--model", key, "--cache-dir", str(tmp_path), "--port", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "stale LogisticRegression state" in err and "gradient-descent format" in err

    def test_fit_rejects_non_metaseg(self):
        config = _serve_config()
        config["kind"] = "decision"
        config["evaluation"] = {}
        with pytest.raises(ValueError, match="metaseg"):
            Runner().fit(config)


class TestSharedExtractor:
    def test_extractor_keeps_no_per_shape_state(self, fitted_model, val_frames):
        """Scoring many frame shapes must not grow the shared extractor."""
        service = ScoringService(fitted_model)
        extractor = service.extractor

        def snapshot():
            return {
                name: (value, len(value) if isinstance(value, (dict, list, set)) else None)
                for name, value in vars(extractor).items()
            }

        before = snapshot()
        _image_id, probs = val_frames[0]
        shapes = [(32, 64), (31, 63), (17, 40), (8, 9), (1, 64), (32, 1)]
        for height, width in shapes:
            crop = np.ascontiguousarray(probs[:height, :width])
            image_id = f"crop-{height}x{width}"
            assert _canon(service.score_frame(crop, image_id=image_id)) == _canon(
                fitted_model.score_frame(crop, image_id=image_id)
            )
        # Same attributes bound to the same, unchanged-size objects: nothing
        # is keyed by shape.
        after = snapshot()
        assert list(after) == list(before)
        for name, (value, size) in before.items():
            assert after[name][0] is value and after[name][1] == size, name
        # The extractor keeps no per-thread state at all: its softmax sweep
        # allocates tile-sized work space per call.
        assert not any(isinstance(value, threading.local) for value in vars(extractor).values())

    def test_used_extractor_pickles_and_scores_identically(self, fitted_model, val_frames):
        """An extractor that has scored a frame round-trips through pickle."""
        service = ScoringService(fitted_model)
        image_id, probs = val_frames[0]
        scored = service.score_frame(probs, image_id=image_id)
        clone = pickle.loads(pickle.dumps(service.extractor))
        assert vars(clone).keys() == vars(service.extractor).keys()
        rescored = fitted_model.score_frame(probs, extractor=clone, image_id=image_id)
        assert _canon(rescored) == _canon(scored)


class TestServerParity:
    def test_health_and_model_endpoints(self, server, fitted_model):
        info = json.loads(urllib.request.urlopen(server.url + "/healthz").read())
        assert info["status"] == "ok"
        assert info["classifier"] == "logistic"
        assert info["n_classes"] == fitted_model.label_space.n_classes
        model_info = json.loads(urllib.request.urlopen(server.url + "/model").read())
        assert model_info["n_features"] == len(fitted_model.feature_names)

    def test_npy_frames_match_batch_bitwise(self, server, val_frames, batch_reference):
        for (image_id, probs), reference in zip(val_frames, batch_reference["frames"]):
            scored = score_frame(server.url, probs, image_id=image_id)
            assert _canon(scored) == _canon(reference)

    def test_npz_batch_matches_batch_bitwise(self, server, val_frames, batch_reference):
        status, scored = _post(
            server.url + "/score", _npz_bytes(val_frames), "application/x-npz"
        )
        assert status == 200
        assert _canon(scored) == _canon(batch_reference)

    def test_concurrent_clients_match_batch_bitwise(self, server, val_frames, batch_reference):
        reference = {
            frame["image_id"]: frame for frame in batch_reference["frames"]
        }
        n_clients = 8
        results = [None] * n_clients
        errors = []

        def client(slot: int) -> None:
            # Each client walks the frames in a different order.
            order = [(slot + i) % len(val_frames) for i in range(len(val_frames))]
            try:
                results[slot] = [
                    score_frame(server.url, val_frames[i][1], image_id=val_frames[i][0])
                    for i in order
                ]
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for scored_frames in results:
            assert scored_frames is not None
            for scored in scored_frames:
                assert _canon(scored) == _canon(reference[scored["image_id"]])


class TestErrorContracts:
    def test_unknown_get_path_is_json_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["code"] == "not_found"

    def test_unknown_post_path_is_json_404(self, server):
        status, body = _post(server.url + "/nope", b"x", "application/x-npy")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unsupported_media_type_is_415(self, server):
        status, body = _post(server.url + "/score", b"x", "text/plain")
        assert status == 415
        assert body["error"]["code"] == "unsupported_media_type"

    def test_malformed_npy_is_400(self, server):
        status, body = _post(server.url + "/score", b"not an npy", "application/x-npy")
        assert status == 400
        assert body["error"]["code"] == "bad_payload"

    def test_json_body_is_415(self, server, val_frames):
        """JSON is not a request format: a well-formed JSON frame is refused
        with a 415 that names the two formats that are."""
        image_id, probs = val_frames[0]
        body = json.dumps({"image_id": image_id, "probs": probs.tolist()}).encode()
        status, error = _post(server.url + "/score", body, "application/json")
        assert status == 415
        assert error["error"]["code"] == "unsupported_media_type"
        assert error["error"]["message"].endswith("use application/x-npy or application/x-npz")

    def test_wrong_ndim_is_400(self, server):
        status, body = _post(
            server.url + "/score", npy_bytes(np.ones((4, 4))), "application/x-npy"
        )
        assert status == 400
        assert body["error"]["code"] == "bad_shape"

    def test_wrong_class_count_is_400(self, server):
        bad = np.full((8, 8, 3), 1.0 / 3.0)
        status, body = _post(server.url + "/score", npy_bytes(bad), "application/x-npy")
        assert status == 400
        assert body["error"]["code"] == "bad_input"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_is_400_naming_the_probability_check(self, server, value):
        """A NaN or ±inf entry fails the extractor's probability check: the
        server answers a structured 400 carrying that check's message, the
        one in-process validation raises, and keeps answering /healthz."""
        field = np.full((8, 8, 19), 1.0 / 19.0)
        field[3, 5, 2] = value
        with pytest.raises(ValueError) as expected:
            check_probability_field(field)
        status, body = _post(server.url + "/score", npy_bytes(field), "application/x-npy")
        assert status == 400
        assert body["error"]["code"] == "bad_input"
        assert body["error"]["message"] == str(expected.value)
        assert body["error"]["message"].startswith("probs ")
        with urllib.request.urlopen(server.url + "/healthz", timeout=30) as response:
            assert response.status == 200

    @pytest.mark.parametrize("shape", [(0, 8, 19), (8, 0, 19)])
    def test_empty_field_is_400_naming_probs(self, server, shape):
        status, body = _post(
            server.url + "/score", npy_bytes(np.zeros(shape)), "application/x-npy"
        )
        assert status == 400
        assert body["error"]["code"] == "bad_input"
        assert body["error"]["message"] == "probs must be non-empty"

    def test_missing_content_length_is_411(self, server):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /score HTTP/1.0\r\n\r\n")
            response = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert b" 411 " in head.split(b"\r\n", 1)[0]
        assert json.loads(body)["error"]["code"] == "length_required"

    def test_non_integer_content_length_is_400(self, server):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /score HTTP/1.0\r\nContent-Length: ten\r\n\r\n")
            response = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert b" 400 " in head.split(b"\r\n", 1)[0]
        error = json.loads(body)["error"]
        assert error["code"] == "bad_length"
        assert error["message"] == "invalid Content-Length 'ten'"

    @pytest.mark.fuzz
    def test_short_body_then_eof_is_400_not_a_hang(self, server):
        """A client that declares more than it sends and then closes its
        write side gets a structured 400 naming the truncation."""
        body = npy_bytes(np.full((8, 8, 19), 1.0 / 19.0))
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /score HTTP/1.0\r\nContent-Type: application/x-npy\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body[: len(body) // 2]
            )
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        head, _, payload = response.partition(b"\r\n\r\n")
        assert b" 400 " in head.split(b"\r\n", 1)[0]
        error = json.loads(payload)["error"]
        assert error["code"] == "bad_payload"
        assert error["message"].startswith("frame 'frame': truncated npy data, got ")

    def test_oversized_payload_is_413(self, fitted_model, val_frames):
        server = ScoringServer(
            ScoringService(fitted_model), port=0, workers=1, max_request_bytes=1000
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            wait_until_ready(server.url)
            status, body = _post(
                server.url + "/score",
                npy_bytes(val_frames[0][1]),
                "application/x-npy",
            )
            assert status == 413
            assert body["error"]["code"] == "payload_too_large"
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)

    def test_stalled_body_is_408_and_frees_the_worker(self, fitted_model, monkeypatch):
        """A client that declares 1000 body bytes, sends 6 and holds its
        socket gets a structured 408 within the read deadline, and the one
        worker then answers /healthz."""
        deadline = 0.5
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", deadline)
        server = ScoringServer(ScoringService(fitted_model), port=0, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            wait_until_ready(server.url)
            assert server.metrics.counter("serve.timeouts.count").value == 0
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=deadline + 2.0) as sock:
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
                elapsed = time.monotonic() - start
            assert elapsed <= deadline + 2.0
            head, _, payload = response.partition(b"\r\n\r\n")
            assert b" 408 " in head.split(b"\r\n", 1)[0]
            error = json.loads(payload)["error"]
            assert error["code"] == "request_timeout"
            assert error["message"] == "request body stalled past the 0.5 s read deadline"
            with urllib.request.urlopen(server.url + "/healthz", timeout=deadline + 2.0) as reply:
                assert reply.status == 200
                assert json.loads(reply.read())["status"] == "ok"
            assert server.metrics.counter("serve.timeouts.count").value == 1
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)


def _live_children() -> list:
    """Pids of this process's children, zombies included (Linux ``/proc``)."""
    pids = []
    for task in Path("/proc/self/task").iterdir():
        pids.extend(int(pid) for pid in (task / "children").read_text().split())
    return pids


class TestScoringProcesses:
    def test_closing_the_older_of_two_servers_is_prompt_and_frees_its_port(
        self, fitted_model
    ):
        """A later server's scoring process holds nothing of an earlier
        server's: closing the earlier one reaps its child at once (the
        child sees its pipe's EOF) and its port stops listening."""
        older = ScoringServer(ScoringService(fitted_model), port=0, workers=1)
        newer = ScoringServer(ScoringService(fitted_model), port=0, workers=1)
        try:
            child = older._scorers[0].process
            address = older.server_address[:2]
            start = time.monotonic()
            older.close()
            assert time.monotonic() - start < 2.0
            assert child.exitcode == 0
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5).close()
        finally:
            newer.close()
        assert newer._scorers[0].process.exitcode == 0


@pytest.mark.faults
class TestWorkerLoss:
    def test_killed_scoring_process_answers_worker_lost_then_is_replaced(
        self, fitted_model, val_frames, tmp_path
    ):
        """SIGKILL the one scoring process mid-request: that request gets a
        structured 500 well within the read deadline, the loss is counted,
        the next request is scored bitwise by a fresh process, and close()
        leaves no child of the server behind."""
        hold = tmp_path / "hold"
        pid_file = tmp_path / "pid"
        service = ScoringService(fitted_model)
        original = service.score_frame

        def held_score_frame(probs, image_id="frame"):
            # Runs in the scoring process, which inherits this override: the
            # first call takes the hold, reports its pid and waits.
            if hold.exists():
                hold.unlink()
                (tmp_path / "pid.tmp").write_text(str(os.getpid()))
                (tmp_path / "pid.tmp").rename(pid_file)
                time.sleep(60)
            return original(probs, image_id=image_id)

        service.score_frame = held_score_frame
        hold.touch()
        # Other servers of this module (the shared fixture's) keep theirs.
        children_before = _live_children()
        server = ScoringServer(service, port=0, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        image_id, probs = val_frames[0]
        outcome = []
        try:
            wait_until_ready(server.url)
            first_pid = server._scorers[0].process.pid
            client = threading.Thread(
                target=lambda: outcome.append(
                    _post(server.url + "/score", npy_bytes(probs), "application/x-npy",
                          {"X-Image-Id": image_id})
                )
            )
            client.start()
            _wait_until(pid_file.exists)
            assert int(pid_file.read_text()) == first_pid
            killed = time.monotonic()
            os.kill(first_pid, signal.SIGKILL)
            client.join(timeout=30)
            answered_s = time.monotonic() - killed
            assert not client.is_alive()
            assert answered_s < server_module.READ_TIMEOUT_S / 2
            status, body = outcome[0]
            assert status == 500
            assert body["error"]["code"] == "worker_lost"
            assert str(first_pid) in body["error"]["message"]
            assert server.metrics.counter("serve.worker_lost.count").value == 1
            rescored = score_frame(server.url, probs, image_id=image_id)
            assert _canon(rescored) == _canon(fitted_model.score_frame(probs, image_id=image_id))
            assert server._scorers[0].process.pid != first_pid
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)
        assert sorted(_live_children()) == sorted(children_before)


class TestBackpressure:
    @pytest.mark.parametrize(
        "capacity, message",
        [
            ({"workers": 0}, "workers must be >= 1, got 0"),
            ({"queue_depth": 0}, "queue_depth must be >= 1, got 0"),
            ({"max_request_bytes": 0}, "max_request_bytes must be >= 1, got 0"),
        ],
    )
    def test_invalid_capacity_rejected_before_binding(self, fitted_model, capacity, message):
        with pytest.raises(ValueError, match=message):
            ScoringServer(ScoringService(fitted_model), port=0, **capacity)

    def test_saturated_queue_answers_503(self, fitted_model, val_frames):
        gate = threading.Event()
        entered = threading.Event()
        service = ScoringService(fitted_model)
        original = service.score_frames

        def blocking_score_frames(frames):
            entered.set()
            gate.wait(timeout=60)
            return original(frames)

        service.score_frames = blocking_score_frames
        server = ScoringServer(service, port=0, workers=1, queue_depth=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        image_id, probs = val_frames[0]
        outcomes = []

        def client() -> None:
            outcomes.append(score_frame(server.url, probs, image_id=image_id))

        clients = []
        try:
            wait_until_ready(server.url)
            gate.clear()
            # First request occupies the single worker...
            clients.append(threading.Thread(target=client))
            clients[0].start()
            assert entered.wait(timeout=30)
            # ...second fills the depth-1 queue...
            clients.append(threading.Thread(target=client))
            clients[1].start()
            _wait_until(lambda: server._queue.qsize() == 1)
            # ...third connection must be rejected immediately with a
            # structured 503.  The rejection happens at accept time (before
            # any parsing), so a small GET probes it without racing the
            # server's close against a large in-flight request body.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/healthz", timeout=30)
            assert excinfo.value.code == 503
            # Backpressure contract: a Retry-After hint and a request id,
            # echoed in both the header and the structured body.
            assert excinfo.value.headers["Retry-After"] == "1"
            request_id = excinfo.value.headers["X-Request-Id"]
            assert request_id.startswith("req-")
            error = json.loads(excinfo.value.read())["error"]
            assert error["code"] == "overloaded"
            assert error["request_id"] == request_id
            assert server.metrics.counter("serve.rejected.count").value == 1
        finally:
            gate.set()
            for worker in clients:
                worker.join(timeout=60)
            server.shutdown()
            server.close()
            thread.join(timeout=5)
        # The occupied/queued requests complete normally once released.
        assert len(outcomes) == 2
        for scored in outcomes:
            assert scored["image_id"] == image_id


class TestObservability:
    def test_responses_carry_request_ids(self, server):
        with urllib.request.urlopen(server.url + "/healthz") as response:
            assert response.headers["X-Request-Id"].startswith("req-")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope")
        request_id = excinfo.value.headers["X-Request-Id"]
        error = json.loads(excinfo.value.read())["error"]
        assert error["request_id"] == request_id
        assert request_id.startswith("req-")

    def test_request_ids_are_unique_and_monotonic(self, server):
        def rid():
            with urllib.request.urlopen(server.url + "/healthz") as response:
                return int(response.headers["X-Request-Id"].split("-")[1])

        first, second = rid(), rid()
        assert second > first

    def test_metrics_endpoint_exposes_serving_contract(self, server, val_frames):
        image_id, probs = val_frames[0]
        score_frame(server.url, probs, image_id=image_id)
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(server.url + "/nope")
        snapshot = json.loads(
            urllib.request.urlopen(server.url + "/metrics").read()
        )
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        counters = snapshot["counters"]
        assert counters["serve.requests.count"] >= 2
        assert counters["serve.requests.errors"] >= 1
        assert counters["serve.rejected.count"] == 0
        assert "serve.queue.depth" in snapshot["gauges"]
        latency = snapshot["histograms"]["serve.request.latency_seconds"]
        assert latency["count"] >= 2
        assert sum(latency["counts"]) == latency["count"]
        assert len(latency["counts"]) == len(latency["bounds"]) + 1
        assert latency["min"] >= 0.0
        decoded = snapshot["histograms"]["serve.request.decoded_bytes"]
        assert decoded["count"] >= 1
        assert sum(decoded["counts"]) == decoded["count"]
        assert decoded["bounds"][0] == 64 * 1024
        assert decoded["min"] <= probs.nbytes <= decoded["max"]

    def test_request_spans_record_method_path_and_status(self, fitted_model):
        from repro.obs import Tracer

        tracer = Tracer()
        server = ScoringServer(
            ScoringService(fitted_model), port=0, workers=1, tracer=tracer
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            wait_until_ready(server.url)
            urllib.request.urlopen(server.url + "/healthz").read()
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url + "/nope")
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=5)
        spans = {
            record["attrs"]["path"]: record
            for record in tracer.records()
            if record["name"] == "request"
        }
        assert spans["/healthz"]["attrs"]["status"] == 200
        assert spans["/healthz"]["attrs"]["method"] == "GET"
        assert spans["/nope"]["attrs"]["status"] == 404
        assert all(
            record["attrs"]["request_id"].startswith("req-")
            for record in spans.values()
        )


def _wait_until(predicate, timeout: float = 30.0, interval: float = 0.01) -> None:
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


class TestClientRetries:
    """The opt-in 503 retry loop and timeout defaults of repro.serve.client."""

    def _http_error(self, code: int, retry_after=None) -> urllib.error.HTTPError:
        import email.message
        import io

        headers = email.message.Message()
        if retry_after is not None:
            headers["Retry-After"] = retry_after
        return urllib.error.HTTPError(
            "http://x/healthz", code, "busy", headers, io.BytesIO(b"{}")
        )

    def _stub_transport(self, monkeypatch, outcomes):
        """urlopen returns/raises scripted outcomes; sleeps are recorded."""
        from repro.serve import client as client_module

        calls = []
        sleeps = []

        class _Response:
            def __init__(self, payload):
                self._payload = payload

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def read(self):
                return json.dumps(self._payload).encode("utf-8")

        def fake_urlopen(request, timeout=None):
            calls.append({"url": request.full_url, "timeout": timeout})
            outcome = outcomes[min(len(calls) - 1, len(outcomes) - 1)]
            if isinstance(outcome, Exception):
                raise outcome
            return _Response(outcome)

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        return calls, sleeps

    def test_retries_503_honouring_retry_after(self, monkeypatch):
        from repro.serve.client import RETRY_BACKOFF_BASE, health

        calls, sleeps = self._stub_transport(
            monkeypatch,
            [
                self._http_error(503, retry_after="0.01"),
                self._http_error(503),  # no header: exponential backoff
                {"status": "ok"},
            ],
        )
        assert health("http://x", retries=2) == {"status": "ok"}
        assert len(calls) == 3
        assert len(sleeps) == 2
        # First delay follows the server's Retry-After hint (+<50% jitter)...
        assert 0.01 <= sleeps[0] < 0.015
        # ...second falls back to base * 2**attempt.
        expected = RETRY_BACKOFF_BASE * 2
        assert expected <= sleeps[1] < expected * 1.5

    def test_no_retry_by_default(self, monkeypatch):
        from repro.serve.client import health

        calls, sleeps = self._stub_transport(monkeypatch, [self._http_error(503)])
        with pytest.raises(urllib.error.HTTPError):
            health("http://x")
        assert len(calls) == 1
        assert sleeps == []

    def test_non_503_statuses_never_retry(self, monkeypatch):
        from repro.serve.client import health

        calls, sleeps = self._stub_transport(monkeypatch, [self._http_error(500)])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            health("http://x", retries=5)
        assert excinfo.value.code == 500
        assert len(calls) == 1
        assert sleeps == []

    def test_exhausted_retries_raise_the_final_503(self, monkeypatch):
        from repro.serve.client import score_frame

        calls, sleeps = self._stub_transport(
            monkeypatch, [self._http_error(503, retry_after="0.01")]
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            score_frame("http://x", np.ones((4, 4, 8)), retries=2)
        assert excinfo.value.code == 503
        assert len(calls) == 3  # initial try + 2 retries
        assert len(sleeps) == 2

    def test_torn_connection_is_retried(self, monkeypatch):
        """A server rejecting at accept time closes the socket while the
        body is in flight — the client sees URLError(EPIPE), not a 503."""
        from repro.serve.client import health

        calls, sleeps = self._stub_transport(
            monkeypatch,
            [
                urllib.error.URLError(BrokenPipeError(32, "Broken pipe")),
                urllib.error.URLError(ConnectionResetError(104, "reset")),
                {"status": "ok"},
            ],
        )
        assert health("http://x", retries=2) == {"status": "ok"}
        assert len(calls) == 3
        assert len(sleeps) == 2

    def test_torn_connection_not_retried_by_default(self, monkeypatch):
        from repro.serve.client import health

        calls, sleeps = self._stub_transport(
            monkeypatch, [urllib.error.URLError(BrokenPipeError(32, "Broken pipe"))]
        )
        with pytest.raises(urllib.error.URLError):
            health("http://x")
        assert len(calls) == 1
        assert sleeps == []

    def test_other_urlerrors_never_retry(self, monkeypatch):
        from repro.serve.client import health

        calls, sleeps = self._stub_transport(
            monkeypatch, [urllib.error.URLError(ConnectionRefusedError(111, "refused"))]
        )
        with pytest.raises(urllib.error.URLError):
            health("http://x", retries=5)
        assert len(calls) == 1
        assert sleeps == []

    def test_timeout_none_is_normalised_to_default(self, monkeypatch):
        from repro.serve.client import DEFAULT_TIMEOUT, health

        calls, _ = self._stub_transport(monkeypatch, [{"status": "ok"}])
        health("http://x", timeout=None)
        assert calls[0]["timeout"] == DEFAULT_TIMEOUT

    def test_retry_delay_is_capped_and_jittered(self):
        from repro.serve.client import (
            RETRY_BACKOFF_BASE,
            RETRY_BACKOFF_CAP,
            _retry_delay,
        )

        # A huge server hint is capped (then jittered up to +50%).
        assert RETRY_BACKOFF_CAP <= _retry_delay(0, "9999") < RETRY_BACKOFF_CAP * 1.5
        # Garbage and negative hints fall back to exponential backoff.
        for bad in ("soon", "-3"):
            expected = RETRY_BACKOFF_BASE
            assert expected <= _retry_delay(0, bad) < expected * 1.5
        expected = RETRY_BACKOFF_BASE * 4
        assert expected <= _retry_delay(2, None) < expected * 1.5

    def test_retry_against_live_backpressured_server(self, fitted_model, val_frames):
        """End to end: a saturated depth-1 queue 503s, then the retrying
        client succeeds once the worker drains."""
        gate = threading.Event()
        entered = threading.Event()
        service = ScoringService(fitted_model)
        original = service.score_frames

        def blocking_score_frames(frames):
            entered.set()
            gate.wait(timeout=60)
            return original(frames)

        service.score_frames = blocking_score_frames
        server = ScoringServer(service, port=0, workers=1, queue_depth=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        image_id, probs = val_frames[0]
        blockers = []

        def start_blocker() -> None:
            blocker = threading.Thread(
                target=score_frame, args=(server.url, probs),
                kwargs={"image_id": image_id}, daemon=True,
            )
            blocker.start()
            blockers.append(blocker)

        try:
            wait_until_ready(server.url)
            # Sequence the saturating requests: the first must reach the
            # worker before the second is sent, or the second races the
            # depth-1 queue slot and gets bounced with a raw 503 (closing
            # the socket mid-body — a broken pipe in the blocker thread).
            start_blocker()
            assert entered.wait(timeout=30)
            start_blocker()
            _wait_until(lambda: server._queue.qsize() == 1)
            releaser = threading.Timer(0.3, gate.set)
            releaser.start()
            try:
                scored = score_frame(
                    server.url, probs, image_id=image_id, retries=8
                )
            finally:
                releaser.cancel()
                gate.set()
            assert scored["image_id"] == image_id
        finally:
            gate.set()
            for blocker in blockers:
                blocker.join(timeout=60)
            server.shutdown()
            server.close()
            thread.join(timeout=5)

    def test_wait_until_ready_polls_until_healthy(self, monkeypatch):
        calls, sleeps = self._stub_transport(
            monkeypatch,
            [urllib.error.URLError("refused"), ConnectionResetError(), {"status": "ok"}],
        )
        assert wait_until_ready("http://x", timeout=60.0, interval=0.25) == {"status": "ok"}
        assert len(calls) == 3
        assert sleeps == [0.25, 0.25]

    def test_wait_until_ready_times_out_naming_the_last_error(self, monkeypatch):
        self._stub_transport(monkeypatch, [urllib.error.URLError("refused")])
        with pytest.raises(TimeoutError, match=r"not ready after 0.05s: .*refused"):
            wait_until_ready("http://x", timeout=0.05)


class TestRequestParsing:
    """parse_score_request's client errors, without a server."""

    def _npz(self, **frames) -> bytes:
        buffer = io.BytesIO()
        np.savez(buffer, **frames)
        return buffer.getvalue()

    def test_npz_members_keep_archive_order(self):
        first, second = np.zeros((2, 2, 3)), np.ones((2, 2, 3))
        parsed = _parse("application/x-npz", self._npz(b=first, a=second))
        assert [name for name, _ in parsed] == ["b", "a"]
        np.testing.assert_array_equal(parsed[0][1], first)
        np.testing.assert_array_equal(parsed[1][1], second)

    def test_undecodable_npz_is_bad_payload(self):
        with pytest.raises(RequestError, match="could not decode npz payload") as excinfo:
            _parse("application/zip", b"not a zip archive")
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad_payload")

    def test_bare_npy_sent_as_npz_is_bad_payload(self):
        with pytest.raises(RequestError, match="got a bare array") as excinfo:
            _parse("application/x-npz", npy_bytes(np.zeros((2, 2, 3))))
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad_payload")

    def test_empty_npz_is_bad_payload(self):
        with pytest.raises(RequestError, match="contains no frames") as excinfo:
            _parse("application/x-npz", self._npz())
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad_payload")
