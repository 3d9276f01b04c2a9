"""The streaming service over the one serving front end.

:class:`StreamServer` is the asyncio :class:`~repro.serve.PredictionServer`
(same reactor, request parser, single-write responses and error
mapping) bound to a :class:`StreamService`'s registry and batcher, plus
what the online-learning loop adds:

``POST /update``
    Body ``{"op": "insert"|"delete", "records": [...]}`` where every
    record carries the predictor attributes *and* the ``class_label``
    (array records list it last).  By default the update is
    acknowledged as soon as the queue accepts it — 202 with the queue
    position; with ``"wait": true`` the response blocks until the
    update is applied and published: 200 with the new model version and
    the patch/rebuild outcome.  Errors map
    :class:`~repro.exceptions.StreamError`'s ``http_status``: 400
    poisoned batch, 413 oversized, 429 backpressure, 503 shut down or
    degraded.

``POST /predict``
    The predict-only server's contract (records without labels,
    optional ``"proba"``), served through the service's batcher.

``GET /healthz``
    ``{"status": "ok", "version": n, "maintenance": "ok"|"degraded"}``
    — 503 before the first publish.

``GET /stats``
    The service's merged loop snapshot: model version, queue depth,
    staleness seconds + pending-update count, maintain and serve
    counters with latency percentiles.
"""

from __future__ import annotations

import asyncio

from ..exceptions import StreamError
from ..serve.server import PredictionServer, records_to_batch
from .service import StreamService


class StreamServer(PredictionServer):
    """Serves a :class:`StreamService` over asyncio HTTP/1.1.

    Usage::

        with StreamService.build(table, method) as service:
            with StreamServer(service, port=0) as server:
                print(server.url)          # http://127.0.0.1:<port>

    The service owns the batcher's lifecycle; the server only runs the
    reactor.  ``served_requests`` counts /update and /predict answers.
    """

    _error = StreamError

    def __init__(
        self,
        service: StreamService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._bind(service.registry, service.batcher, host, port)
        self._routes[("POST", "/update")] = self._update

    def _start_backend(self) -> None:
        pass

    def _stop_backend(self) -> None:
        pass

    async def _healthz(self, body: bytes) -> tuple[int, dict]:
        status, payload = await super()._healthz(body)
        if status == 200:
            degraded = self.service.loop.degraded
            payload["maintenance"] = "degraded" if degraded else "ok"
        return status, payload

    async def _stats(self, body: bytes) -> tuple[int, dict]:
        return 200, self.service.stats()

    async def _update(self, body: bytes) -> tuple[int, dict]:
        payload = self._payload(body)
        operation = payload.get("op", "insert")
        batch = records_to_batch(
            self.schema, payload["records"], require_label=True
        )
        ticket = self.service.submit_update(operation, batch)
        if not payload.get("wait", False):
            pending, staleness_s = self.service.loop.staleness()
            self._served += 1
            return 202, {
                "accepted": len(batch),
                "op": operation,
                "pending_updates": pending,
                "staleness_s": round(staleness_s, 6),
            }
        report = await asyncio.to_thread(ticket.result)
        self._served += 1
        return 200, {
            "applied": len(batch),
            "op": operation,
            "version": ticket.version,
            "rebuilds": report.finalize.rebuilds,
            "drift": report.drift,
        }
