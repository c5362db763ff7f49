"""The engine session layer: persistent, multi-query d-CC serving.

One :class:`DCCEngine` owns one graph for its lifetime and amortises
everything a one-shot search throws away — the frozen conversion (whose
memo keeps layer cores, core unions, deletion fixed points and
layer-subset d-CCs across queries), the worker pool greedy queries fan
out over (processes keep the deserialized graph between queries) and
the per-graph artifact cache of greedy's full-graph fixed points, with
stats-delta replay so warm results stay bitwise identical to cold ones.
Bottom-up and top-down run their sequential algorithms in process, so
every engine answer equals ``search_dccs(..., jobs=None)``.

This is the substrate the serving stack builds on: multi-graph hosting
sits directly on the session boundary — :class:`repro.host.DCCHost` owns
a registry of these engines under admission control, passing the cache
cap (``cache_max_entries``) a standalone engine leaves off — and batches
pipeline through :meth:`DCCEngine.submit` in the async host's
dispatchers (:meth:`repro.aio.AsyncDCCHost.search_many`).  See
``docs/architecture.md`` for the lifecycle and invalidation contract.
"""

from repro.engine.cache import ArtifactCache
from repro.engine.session import DCCEngine

__all__ = [
    "DCCEngine",
    "ArtifactCache",
]
