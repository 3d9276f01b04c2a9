"""The HTTP front end: one asyncio reactor over the registry + batcher.

Stdlib-only (``asyncio.start_server``): the serving story must work in
the same no-extra-dependencies environment as the rest of the library.
A single-threaded reactor parses each request into a structured batch
and submits it to the shared :class:`~repro.serve.RequestBatcher`; only
the *wait* for the ticket leaves the event loop (``asyncio.to_thread``),
so idle keep-alive connections are cheap coroutine state and the
coalescing batcher still sees all the concurrency.  Every response —
status line, headers and body — leaves in one transport write: a
response split over two sends waits out the client's delayed ACK
(~40 ms) on every keep-alive request.

:class:`~repro.stream.StreamServer` is this same server plus the
``POST /update`` route of the streaming service; in predict-only mode
``/update`` answers 404.

Endpoints:

``POST /predict``
    Body ``{"records": [...]}`` where each record is either an object
    keyed by attribute name or an array in schema order (predictors
    only).  Optional ``"proba": true`` returns class distributions.
    Response ``{"labels": [...], "version": n, "rows": n}`` (or
    ``"proba"``).  Errors map :class:`~repro.exceptions.ServeError`'s
    ``http_status``: 400 malformed, 429 backpressure, 503 no model,
    504 timeout.

``GET /healthz``
    ``{"status": "ok", "version": n}`` — 503 before the first publish.

``GET /stats``
    The batcher's cumulative statistics (latency percentiles included).
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np

from ..exceptions import ReproError, ServeError
from ..observability import NullTracer, Tracer
from ..storage import CLASS_COLUMN, Schema
from .batcher import RequestBatcher, ServeConfig
from .registry import ModelRegistry

_MAX_BODY = 64 << 20  # one very generous bound; requests are micro-batches

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _record_value(record: dict, i: int, name: str):
    """One field of a dict record, with the column *named* on absence.

    Centralizing the lookup keeps the "missing field" failure mode a
    named :class:`ServeError` on every path — a bare ``record[name]``
    would surface as a ``KeyError`` that loses the offending column
    name in the HTTP error body.
    """
    try:
        return record[name]
    except KeyError:
        raise ServeError(f"record {i} is missing column {name!r}") from None


def records_to_batch(
    schema: Schema, records: list, require_label: bool = False
) -> np.ndarray:
    """Build a structured batch from JSON records (dicts or arrays).

    With ``require_label=False`` (inference) each record carries the
    predictor attributes only and the label column is zeroed; with
    ``require_label=True`` (streaming training updates) every record
    must also carry an integer ``class_label`` in ``[0, n_classes)`` —
    array records list it last.  Raises :class:`ServeError` naming the
    offending record/column on malformed input; categorical predictor
    codes are *not* range-checked here (unseen codes route right in the
    kernel), but labels are, since they feed training statistics.
    """
    if not isinstance(records, list):
        raise ServeError("'records' must be a JSON array")
    batch = schema.empty(len(records))
    batch[CLASS_COLUMN] = 0
    names = [a.name for a in schema]
    columns = names + [CLASS_COLUMN] if require_label else names
    for i, record in enumerate(records):
        if isinstance(record, dict):
            values = [_record_value(record, i, name) for name in columns]
        elif isinstance(record, list):
            if len(record) != len(columns):
                raise ServeError(
                    f"record {i} has {len(record)} values; expected "
                    f"{len(columns)} ({len(names)} predictor attributes"
                    + (" + the label)" if require_label else ")")
                )
            values = record
        else:
            raise ServeError(f"record {i} must be an object or an array")
        for name, value in zip(columns, values):
            if not isinstance(value, (int, float)):
                raise ServeError(
                    f"record {i} column {name!r} is not a number: "
                    f"{value!r}"
                )
            if name == CLASS_COLUMN:
                value = _checked_label(schema, i, value)
            batch[name][i] = value
    return batch


def _checked_label(schema: Schema, i: int, value) -> int:
    """An integral in-range class label, or a named :class:`ServeError`."""
    if isinstance(value, float) and not value.is_integer():
        # Catches NaN and ±inf too: nan.is_integer() is False.
        raise ServeError(
            f"record {i} column {CLASS_COLUMN!r} is not an integer "
            f"label: {value!r}"
        )
    label = int(value)
    if not 0 <= label < schema.n_classes:
        raise ServeError(
            f"record {i} column {CLASS_COLUMN!r} is out of range: "
            f"{label} (schema has {schema.n_classes} classes)"
        )
    return label


def _response(status: int, payload: dict, keep_alive: bool) -> bytes:
    """One whole HTTP/1.1 response, head and body, for a single write."""
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


class PredictionServer:
    """Serves a :class:`ModelRegistry` over HTTP through a batcher.

    Usage::

        registry = ModelRegistry()
        registry.publish(tree)                    # or registry.follow(boat)
        with PredictionServer(registry, port=0) as server:
            print(server.url)                    # http://127.0.0.1:<port>

    The reactor runs on a dedicated thread so the caller keeps a normal
    synchronous lifecycle; ``port=0`` binds an ephemeral port
    (``server.port`` has the real one).
    """

    #: The error type raised for this server's own lifecycle failures.
    _error = ServeError

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServeConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer: Tracer | NullTracer | None = None,
    ):
        batcher = RequestBatcher(registry, config, tracer)
        self._bind(registry, batcher, host, port)

    def _bind(self, registry, batcher, host: str, port: int) -> None:
        self.registry = registry
        self.batcher = batcher
        self._host = host
        self._requested_port = port
        self._port: int | None = None
        self._thread: threading.Thread | None = None
        self._aio_loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._connections: dict = {}  # handler task -> its writer
        self._served = 0
        self._routes = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/stats"): self._stats,
            ("POST", "/predict"): self._predict,
        }

    # -- lifecycle ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.registry.current().tree.schema

    @property
    def port(self) -> int:
        if self._port is None:
            raise self._error("server is not running", http_status=503)
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    @property
    def served_requests(self) -> int:
        """Successful /predict (and, streaming, /update) answers so far."""
        return self._served

    def start(self) -> "PredictionServer":
        if self._thread is not None:
            raise self._error("server is already started")
        self._start_backend()
        self._ready.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_reactor, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            self._stop_backend()
            raise self._error(
                f"server failed to start: {self._startup_error}",
                http_status=503,
            )
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._aio_loop.call_soon_threadsafe(self._stop.set)
            self._thread.join()
            self._thread = None
            self._aio_loop = None
            self._port = None
        self._stop_backend()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _start_backend(self) -> None:
        self.registry.current()  # fail fast when nothing is published
        self.batcher.start()

    def _stop_backend(self) -> None:
        self.batcher.close()

    def _run_reactor(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self._aio_loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )
        self._port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            for writer in self._connections.values():
                writer.close()  # ends idle keep-alive reads with EOF
            await asyncio.gather(*self._connections, return_exceptions=True)
            await server.wait_closed()

    # -- one connection -------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._connections[asyncio.current_task()] = writer
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, path, keep_alive, body = request
                status, payload = await self._dispatch(method, path, body)
                writer.write(_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass  # client went away or sent garbage; nothing to answer
        finally:
            self._connections.pop(asyncio.current_task(), None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader, writer):
        """``(method, path, keep_alive, body)``, or ``None`` to hang up."""
        parts = (await reader.readline()).decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        if not 0 <= length <= _MAX_BODY:
            return None
        if length and headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:
            keep_alive = connection == "keep-alive"
        return method, path, keep_alive, body

    async def _dispatch(self, method, path, body) -> tuple[int, dict]:
        route = self._routes.get((method, path))
        if route is None:
            return 404, {"error": f"no such endpoint: {method} {path}"}
        try:
            return await route(body)
        except ReproError as exc:
            # ServeError/StreamError carry their status; any other
            # library error is a malformed request.
            return getattr(exc, "http_status", 400), {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - answered, not dropped
            return 500, {"error": f"internal error: {exc!r}"}

    # -- routes ---------------------------------------------------------------

    @staticmethod
    def _payload(body: bytes) -> dict:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise ServeError(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict) or "records" not in payload:
            raise ServeError("request body needs a 'records' array")
        return payload

    async def _healthz(self, body: bytes) -> tuple[int, dict]:
        version = self.registry.version
        if version == 0:
            return 503, {"status": "empty", "version": 0}
        return 200, {"status": "ok", "version": version}

    async def _stats(self, body: bytes) -> tuple[int, dict]:
        return 200, self.batcher.stats()

    async def _predict(self, body: bytes) -> tuple[int, dict]:
        payload = self._payload(body)
        batch = records_to_batch(self.schema, payload["records"])
        proba = bool(payload.get("proba", False))
        ticket = self.batcher.submit(batch, proba=proba)
        result = await asyncio.to_thread(ticket.result)
        self._served += 1
        response: dict = {"version": ticket.version, "rows": len(batch)}
        if proba:
            response["proba"] = [list(row) for row in result]
        else:
            response["labels"] = [int(v) for v in result]
        return 200, response
