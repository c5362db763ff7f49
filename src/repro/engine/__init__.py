"""The engine session layer: persistent, multi-query d-CC serving.

One :class:`DCCEngine` owns one graph for its lifetime and amortises
everything a one-shot search throws away — the frozen conversion, the
worker pool (processes keep the deserialized graph between queries), the
per-graph artifact cache (d-core decompositions, InitTopK seeds, the
hierarchy index, with stats-delta replay so warm results stay bitwise
identical to cold ones).

This is the substrate the serving roadmap builds on: batching lives here
(``engine.search_many``), and multi-graph hosting sits directly on the
session boundary — :class:`repro.host.DCCHost` owns a registry of these
engines under admission control, passing the cache bounds
(``cache_max_entries`` / ``cache_ttl``) a standalone engine leaves off.
See ``docs/architecture.md`` for the lifecycle and invalidation
contract.
"""

from repro.engine.cache import ArtifactCache
from repro.engine.session import DCCEngine

__all__ = [
    "DCCEngine",
    "ArtifactCache",
]
