"""Multi-graph hosting: a registry of engine sessions under one roof.

One :class:`DCCHost` serves d-CC queries over many named graphs from a
single process, admitting :class:`repro.engine.DCCEngine` sessions
lazily and evicting them LRU-first under a resident-engine cap and an
optional global memory budget — eviction closes the victim's worker
pool, and re-admission is cold but bitwise exact.  Host-owned engines
run with bounded artifact caches; standalone engines stay unbounded by
default.

:func:`~repro.host.spec.parse_request` reads every search or update
spec on every entry path; ``repro host`` validates a JSON batch spec
with :func:`~repro.host.spec.parse_host_spec` and serves it through
:meth:`repro.aio.AsyncDCCHost.run_batch` over one of these hosts.
``docs/architecture.md`` documents the admission-control and eviction
policy.
"""

from repro.host.registry import (
    DEFAULT_CACHE_MAX_ENTRIES,
    DEFAULT_MAX_ENGINES,
    DCCHost,
)
from repro.host.spec import parse_host_spec, parse_request

__all__ = [
    "DCCHost",
    "DEFAULT_MAX_ENGINES",
    "DEFAULT_CACHE_MAX_ENTRIES",
    "parse_host_spec",
    "parse_request",
]
