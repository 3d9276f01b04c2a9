"""A small, clean HTTP load generator for the serving workloads.

One process, at most two threads, at most two keep-alive connections.
Each request (headers and body) goes out in a single ``sendall`` on a
``TCP_NODELAY`` socket, so the client adds no Nagle stall of its own.

The open loop gives request ``i`` the due time ``t0 + i / rate`` and deals
requests to the connections round-robin.  A connection sends a request at
its due time, or as soon as its previous response has arrived if that is
later; latency is timed from the due time, so a stall also charges the
wait it imposes on the requests queued behind it.  The generator's own
lateness — how long after a request *could* have been sent it actually
was — is reported separately, so a slow client is not mistaken for a slow
server.  The closed loop instead models callers that each wait for their
answer before sending again.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field


class HttpError(Exception):
    pass


class Connection:
    """One keep-alive HTTP/1.1 connection with single-write requests."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.sock.sendall(head + body)
        return self._read_response()

    def _read_response(self) -> tuple[int, bytes]:
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        self._buf = rest
        while len(self._buf) < length:
            self._fill()
        body, self._buf = self._buf[:length], self._buf[length:]
        return status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise HttpError("connection closed by server")
        self._buf += chunk

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def get_json(host: str, port: int, path: str, timeout: float = 2.0) -> tuple[int, dict]:
    with Connection(host, port, timeout) as conn:
        status, body = conn.request("GET", path)
    return status, json.loads(body or b"{}")


@dataclass
class Sample:
    index: int
    due: float
    latency_s: float  # response time minus due time
    late_s: float  # generator lateness (send time minus ready time)
    status: int
    body: bytes


@dataclass
class LoadResult:
    rate: float  # offered requests/s; 0 for a closed loop
    attempted: int = 0
    samples: list[Sample] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0


def _on_threads(run, count: int) -> None:
    """``run(k)`` for every ``k < count``; ``k = 0`` on the calling thread,
    so ``count`` connections take ``count`` threads in all."""
    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, count)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()


def open_loop(
    host: str,
    port: int,
    path: str,
    bodies,
    rate: float,
    seconds: float,
    connections: int = 2,
) -> LoadResult:
    """Offer ``rate`` requests/s for ``seconds`` over ``connections`` sockets.

    ``bodies(i)`` returns the body bytes of request ``i``.  Returns every
    completed sample; a request whose connection failed is an error.
    """
    n = int(rate * seconds)
    result = LoadResult(rate, attempted=n)
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.02

    def run(k: int) -> None:
        try:
            with Connection(host, port) as conn:
                run_connection(k, conn)
        except (OSError, HttpError) as exc:
            with lock:
                result.errors.append(f"connection {k}: {exc}")

    def run_connection(k: int, conn: Connection) -> None:
        free_at = t0
        for i in range(k, n, connections):
            due = t0 + i / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            ready = max(due, free_at)
            status, body = conn.request("POST", path, bodies(i))
            free_at = time.perf_counter()
            with lock:
                result.samples.append(
                    Sample(i, due, free_at - due, max(0.0, sent - ready), status, body)
                )

    _on_threads(run, connections)
    result.elapsed_s = time.perf_counter() - t0
    result.samples.sort(key=lambda s: s.index)
    return result


def closed_loop(host: str, port: int, path: str, bodies, callers: int,
                seconds: float) -> LoadResult:
    """``callers`` keep-alive clients, each sending its next request as soon
    as the previous answer arrives, for ``seconds``.

    Latency is send → answer; the ``j``-th request of caller ``k`` has
    index ``j * callers + k``.  A caller whose connection fails has one
    attempted request without a sample.
    """
    result = LoadResult(0.0)
    lock = threading.Lock()
    end = time.perf_counter() + seconds

    def run(k: int) -> None:
        try:
            with Connection(host, port) as conn:
                i = k
                while time.perf_counter() < end:
                    sent = time.perf_counter()
                    status, body = conn.request("POST", path, bodies(i))
                    done = time.perf_counter()
                    with lock:
                        result.samples.append(Sample(i, sent, done - sent, 0.0, status, body))
                    i += callers
        except (OSError, HttpError) as exc:
            with lock:
                result.errors.append(f"caller {k}: {exc}")

    _on_threads(run, callers)
    result.elapsed_s = time.perf_counter() - (end - seconds)
    result.attempted = len(result.samples) + len(result.errors)
    result.samples.sort(key=lambda s: s.index)
    return result
