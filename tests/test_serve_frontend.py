"""The one asyncio HTTP front end, in predict-only and stream mode.

Both ``repro serve MODEL.json`` (:class:`~repro.serve.PredictionServer`)
and ``repro serve --stream`` (:class:`~repro.stream.StreamServer`) run
the same reactor.  These tests pin its wire behaviour: every response —
status line, headers and body — leaves in ONE ``send``.  A response
split over two sends makes a keep-alive client's delayed ACK (~40 ms on
Linux) stall every request, so the keep-alive test bounds the median of
back-to-back requests on one connection well below that floor.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import IncrementalBoat
from repro.serve import ModelRegistry, PredictionServer, ServeConfig
from repro.splits import ImpuritySplitSelection
from repro.storage import Attribute, Schema
from repro.stream import StreamConfig, StreamServer, StreamService

from .conftest import simple_xy_data

SCHEMA = Schema(
    [
        Attribute.numerical("x"),
        Attribute.numerical("y"),
        Attribute.categorical("color", 4),
    ],
    n_classes=2,
)
BASE = simple_xy_data(SCHEMA, 2000, seed=1, rule="xy")
SPLIT = SplitConfig(min_samples_split=40, min_samples_leaf=10, max_depth=8)
BOAT = BoatConfig(sample_size=800, bootstrap_repetitions=6, seed=2)
MODES = ("predict", "stream")


def records(n: int, seed: int, label: bool = False) -> list[list]:
    rows = simple_xy_data(SCHEMA, n, seed=seed)
    return [
        [float(r["x"]), float(r["y"]), int(r["color"])]
        + ([int(r["class_label"])] if label else [])
        for r in rows
    ]


@contextlib.contextmanager
def front(mode: str, serve: ServeConfig | None = None, start=True, **stream):
    """A running server of ``mode`` over a tree built from :data:`BASE`.

    ``start=False`` leaves the stream service (or the predict-only
    batcher) stopped underneath a running reactor, so every route answers
    its 503.
    """
    serve = serve or ServeConfig(max_batch_size=512, max_delay_ms=1.0)
    maintainer = IncrementalBoat.from_chunk(
        BASE, SCHEMA, ImpuritySplitSelection("gini"), SPLIT, BOAT
    )
    try:
        if mode == "predict":
            registry = ModelRegistry()
            registry.publish(maintainer.tree)
            with PredictionServer(registry, serve) as server:
                if not start:
                    server.batcher.close()
                yield server
        else:
            service = StreamService(
                maintainer, StreamConfig(serve=serve, **stream)
            )
            with contextlib.ExitStack() as stack:
                if start:
                    stack.enter_context(service)
                with StreamServer(service) as server:
                    yield server
    finally:
        maintainer.close()


class RawClient:
    """One keep-alive connection that returns each response's raw bytes."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method: str, path: str, payload=None, body=None):
        if body is None:
            body = b"" if payload is None else json.dumps(payload).encode()
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(
            int(line.split(":", 1)[1])
            for line in lines
            if line.lower().startswith("content-length:")
        )
        while len(rest) < length:
            self._fill()
            rest = self.buf.partition(b"\r\n\r\n")[2]
        raw = head + b"\r\n\r\n" + rest[:length]
        self.buf = rest[length:]
        return int(lines[0].split()[1]), json.loads(rest[:length]), raw

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        assert chunk, "server closed the connection"
        self.buf += chunk

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def sends(monkeypatch):
    """Every TCP ``socket.send`` payload: the server's writes (clients
    here use ``sendall``; the event loop's wake-ups go over AF_UNIX)."""
    captured: list[bytes] = []
    real_send = socket.socket.send

    def send(sock, data, *args):
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            captured.append(bytes(data))
        return real_send(sock, data, *args)

    monkeypatch.setattr(socket.socket, "send", send)
    return captured


def exchange(server, sends, method, path, payload=None, body=None):
    """One request on a fresh connection; asserts the single-send rule."""
    client = RawClient(server.port)
    try:
        sends.clear()
        status, answer, raw = client.request(method, path, payload, body)
    finally:
        client.close()
    assert sends == [raw], (
        f"{method} {path} -> {status} left in {len(sends)} sends"
    )
    return status, answer


@pytest.mark.parametrize("mode", MODES)
class TestOneWritePerResponse:
    def test_success_and_client_errors(self, mode, sends):
        with front(mode) as server:
            ok = exchange(server, sends, "POST", "/predict",
                          {"records": records(32, seed=3)})
            assert ok[0] == 200 and ok[1]["rows"] == 32
            assert exchange(server, sends, "POST", "/predict",
                            body=b"{not json")[0] == 400
            assert exchange(server, sends, "POST", "/predict",
                            {"records": [{"x": 1.0}]})[0] == 400
            assert exchange(server, sends, "GET", "/nope")[0] == 404
            health = exchange(server, sends, "GET", "/healthz")
            assert health[0] == 200 and health[1]["status"] == "ok"
            assert exchange(server, sends, "GET", "/stats")[0] == 200

    def test_backpressure_429(self, mode, sends):
        config = ServeConfig(max_delay_ms=1.0, queue_capacity=4)
        with front(mode, config) as server:
            status, answer = exchange(server, sends, "POST", "/predict",
                                      {"records": records(5, seed=4)})
        assert status == 429 and "backpressure" in answer["error"]

    def test_stopped_backend_503(self, mode, sends):
        with front(mode, start=False) as server:
            status, _ = exchange(server, sends, "POST", "/predict",
                                 {"records": records(2, seed=5)})
            assert status == 503
            if mode == "stream":  # nothing published, nothing accepted
                assert exchange(server, sends, "GET", "/healthz")[0] == 503
                update = {"records": records(2, 6, label=True)}
                assert exchange(server, sends, "POST", "/update",
                                update)[0] == 503

    def test_timeout_504(self, mode, sends):
        config = ServeConfig(max_delay_ms=50.0, default_timeout_s=1e-6)
        with front(mode, config) as server:
            status, answer = exchange(server, sends, "POST", "/predict",
                                      {"records": records(2, seed=7)})
        assert status == 504 and "timed out" in answer["error"]


class TestStreamRoutesOneWrite:
    def test_update_responses(self, sends):
        with front("stream", queue_rows=4) as server:
            waited = exchange(server, sends, "POST", "/update",
                              {"records": records(3, 8, label=True),
                               "wait": True})
            assert waited[0] == 200 and waited[1]["version"] == 2
            accepted = exchange(server, sends, "POST", "/update",
                                {"records": records(2, 9, label=True)})
            assert accepted[0] == 202
            server.service.drain()
            full = exchange(server, sends, "POST", "/update",
                            {"records": records(5, 10, label=True)})
            assert full[0] == 429


class TestPredictOnlyMode:
    def test_update_is_404(self):
        with front("predict") as server:
            client = RawClient(server.port)
            try:
                status, answer, _ = client.request(
                    "POST", "/update",
                    {"records": records(1, 11, label=True)},
                )
            finally:
                client.close()
        assert status == 404 and "/update" in answer["error"]


@pytest.mark.parametrize("mode", MODES)
class TestKeepAlive:
    def test_back_to_back_predicts_reuse_one_connection(self, mode):
        body = json.dumps({"records": records(32, seed=12)})
        with front(mode) as server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                latencies, sockets = [], set()
                for _ in range(30):
                    started = time.perf_counter()
                    connection.request(
                        "POST", "/predict", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    answer = json.loads(response.read())
                    latencies.append(time.perf_counter() - started)
                    assert response.status == 200 and answer["rows"] == 32
                    assert not response.will_close
                    sockets.add(id(connection.sock))
            finally:
                connection.close()
        assert len(sockets) == 1, "a request opened a new connection"
        median_ms = statistics.median(latencies) * 1000.0
        assert median_ms < 30.0, (
            f"keep-alive /predict median {median_ms:.1f} ms: a response "
            "split over two sends waits out the client's delayed ACK"
        )

    def test_http10_request_closes_after_the_response(self, mode):
        with front(mode) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30) as sock:
                sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
        assert data.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in data

    def test_close_with_an_idle_keep_alive_client(self, mode):
        with front(mode) as server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
            done = threading.Event()
            closer = threading.Thread(
                target=lambda: (server.close(), done.set())
            )
            closer.start()
            assert done.wait(10), "close() hung on an idle connection"
            closer.join()
            connection.close()

    def test_expect_continue_gets_an_interim_response(self, mode):
        payload = json.dumps({"records": records(4, seed=13)}).encode()
        with front(mode) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30) as sock:
                sock.sendall(
                    b"POST /predict HTTP/1.1\r\nExpect: 100-continue\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                )
                assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
                sock.sendall(payload)
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
