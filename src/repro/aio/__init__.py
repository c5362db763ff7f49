"""Async serving over the multi-graph host.

:class:`AsyncDCCHost` puts an asyncio front-end on
:class:`repro.host.DCCHost`: per-graph bounded request queues with one
dispatcher task each, in-flight coalescing of identical specs, a
cross-time :class:`ResultCache` above the coalescer, backpressure via
:class:`~repro.utils.errors.QueueFullError`, and a graceful drain on
``aclose()`` — while the submission/collection split in the engine and
worker pool lets dispatchers *await* shard futures instead of parking a
thread per request.  :meth:`AsyncDCCHost.search_many` (and its
synchronous bridge :meth:`~AsyncDCCHost.run_batch`) is the one batch
path: ``repro batch`` and ``repro host`` serve their files through it.

:class:`DCCServer` lifts the JSON-lines protocol onto real sockets
(``repro serve --port``) so many client connections multiplex over one
host; ``repro serve`` without ``--port`` drives the same protocol over
stdin/stdout, through the same decoder and handler
(:func:`decode_request`, :func:`answer_request`).
``docs/architecture.md`` documents the queueing, coalescing, caching and
fault-containment design.
"""

from repro.aio.host import (
    DEFAULT_MAX_PENDING,
    MAX_BATCH,
    AsyncDCCHost,
)
from repro.aio.metrics import DEFAULT_LATENCY_WINDOW, LatencyRecorder
from repro.aio.result_cache import DEFAULT_RESULT_CACHE_ENTRIES, ResultCache
from repro.aio.server import (
    DEFAULT_BIND,
    DEFAULT_MAX_REQUEST_BYTES,
    DCCServer,
    answer_request,
    decode_request,
    format_response,
    serving_stats,
)

__all__ = [
    "AsyncDCCHost",
    "DCCServer",
    "DEFAULT_BIND",
    "DEFAULT_LATENCY_WINDOW",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_MAX_REQUEST_BYTES",
    "DEFAULT_RESULT_CACHE_ENTRIES",
    "LatencyRecorder",
    "MAX_BATCH",
    "ResultCache",
    "answer_request",
    "decode_request",
    "format_response",
    "serving_stats",
]
