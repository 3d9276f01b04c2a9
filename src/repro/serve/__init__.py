"""``repro.serve`` — the batched model-serving layer.

The inference-stack counterpart to the parallel training layer: a
current tree is only useful if it can be queried at production rates
while the maintainer keeps it exact under updates.  Three pieces:

* :class:`CompiledPredictor` — a tree flattened into contiguous numpy
  arrays, routing whole batches iteratively (no Python-object
  traversal); exactly equivalent to the recursive reference path.
* :class:`ModelRegistry` — atomic hot-swap of published models;
  :meth:`~ModelRegistry.follow` wires it to an
  :class:`~repro.core.IncrementalBoat` so every insert/delete chunk
  publishes the new exact tree with zero torn reads.
* :class:`RequestBatcher` / :class:`PredictionServer` — queue +
  max-batch/max-delay coalescing with backpressure and per-request
  timeouts (:class:`~repro.exceptions.ServeError`), optionally fronted
  by the one stdlib asyncio HTTP server (``repro serve``; the streaming
  :class:`~repro.stream.StreamServer` is the same server plus
  ``POST /update``).

See ``docs/SERVING.md`` for the architecture and the guarantees the
test suites enforce.
"""

from .batcher import PredictionTicket, RequestBatcher, ServeConfig
from .compiled import LEAF, CompiledPredictor
from .forest import CompiledForest
from .registry import ModelRegistry, PublishedModel
from .server import PredictionServer, records_to_batch

__all__ = [
    "LEAF",
    "CompiledForest",
    "CompiledPredictor",
    "ModelRegistry",
    "PredictionServer",
    "PredictionTicket",
    "PublishedModel",
    "RequestBatcher",
    "ServeConfig",
    "records_to_batch",
]
