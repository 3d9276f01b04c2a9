"""``repro.stream`` — the streaming online-learning loop.

Closes the paper-§4 update→maintain→publish→serve loop as one service:

* :class:`IngestQueue` — bounded insert/delete micro-batch buffering
  with 429 backpressure and submit-time poison rejection;
* :class:`MaintenanceLoop` — one thread coalescing queued chunks into
  the maintainer, counting patch-vs-rebuild outcomes, failing stop on a
  mid-apply fault (degraded mode) while serving stays up;
* :class:`RebuildMaintainer` — exact maintenance-by-rebuild for split
  methods without §4 incremental support (QUEST);
* :class:`StreamService` — the composition: maintainer +
  :meth:`~repro.serve.ModelRegistry.follow` publication + ingest queue
  + maintenance loop + the serving-side
  :class:`~repro.serve.RequestBatcher`, with staleness/SLO stats;
* :class:`StreamServer` — the asyncio :class:`~repro.serve.PredictionServer`
  plus POST /update (POST /predict, GET /healthz, GET /stats).

See ``docs/STREAMING.md`` for the architecture, the SLO definitions,
and the guarantees the equivalence + soak harness enforces.
"""

from .ingest import OPERATIONS, IngestQueue, UpdateTicket
from .maintain import MaintenanceLoop
from .maintainers import RebuildMaintainer
from .server import StreamServer
from .service import StreamConfig, StreamService

__all__ = [
    "OPERATIONS",
    "IngestQueue",
    "MaintenanceLoop",
    "RebuildMaintainer",
    "StreamConfig",
    "StreamServer",
    "StreamService",
    "UpdateTicket",
]
