"""Per-graph artifact cache: reuse across queries, replayed counters.

A search session asks many related questions of one graph, and greedy's
expensive prefix repeats: the full-graph vertex-deletion fixed point
depends only on ``(d, s, vertex-deletion flag)``.  :class:`ArtifactCache`
memoises it per graph, keyed by those parameters, for the greedy queries
the engine plans for its pool.  Bottom-up and top-down run their
sequential algorithms, which read what the frozen graph keeps itself
(:class:`~repro.graph.frozen.LayerCoreMemo`: each layer's d-core, each
d's core union, each ``(d, s)``'s deletion fixed point on that union and
each layer subset's d-CC); a patched graph keeps the layer cores and
d-CCs whose layers a delta left alone.

**The counter-replay contract.** Reported :class:`SearchStats` are part
of this repo's bitwise-determinism guarantee, and a cache that silently
skipped work would make a warm query report fewer ``dcc_calls`` than a
cold one.  So every entry stores ``(value, stats delta)``: the build
runs against a private stats object, and *every* lookup — hit or miss —
hands the caller that delta to merge.  A warm query therefore reports
exactly the counters of a cold one, verified property-wise in
``tests/test_engine.py``.

Cached fixed points are only read (greedy's shards read their masks), so
sharing them across queries cannot alias mutable state.  Invalidation is
the owning engine's job: the cache itself trusts its graph never to
change, which :class:`repro.engine.DCCEngine` enforces through the
graph's ``mutation_version``.

**Bounds.** By default the cache is unbounded — correct for one graph's
parameter space, where an engine serves a handful of ``(d, s)``
combinations.  A multi-graph host keeps many caches alive at once, so
the constructor accepts ``max_entries`` (LRU discard beyond the cap).
Eviction never affects results: a re-looked-up artifact is rebuilt by
the same pure function and charges the same stats delta, so warm results
stay bitwise identical to cold ones across any eviction schedule
(property-tested in ``tests/test_engine.py``).
"""

from collections import OrderedDict

from repro.core.preprocess import vertex_deletion
from repro.core.stats import SearchStats
from repro.utils.errors import ParameterError


class ArtifactCache:
    """Memoised per-graph search artifacts with stats-delta replay.

    Parameters
    ----------
    graph:
        The (never-mutating) graph every artifact is derived from.
    max_entries:
        Entry cap; the least-recently-used entry is discarded beyond it.
        ``None`` (default) keeps the classic unbounded behaviour.
    """

    def __init__(self, graph, max_entries=None):
        if max_entries is not None and (
                isinstance(max_entries, bool)
                or not isinstance(max_entries, int) or max_entries < 1):
            raise ParameterError(
                "max_entries must be None or a positive integer, "
                "got {!r}".format(max_entries)
            )
        self.graph = graph
        self.max_entries = max_entries
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def rebind(self, graph, touched_layers):
        """Retarget the cache at a post-delta graph.

        ``touched_layers`` names the layers whose edge sets the delta
        changed (the vertex set must be unchanged — structural deltas
        rebuild the whole session and never reach here).  A fixed point
        depends on every layer, so a touched layer drops them all; the
        layer cores and d-CCs of untouched layers outlive the delta in
        the patched frozen graph.
        """
        self.graph = graph
        if touched_layers:
            self._entries.clear()

    def stats(self):
        """Hit/miss/size counters for ``engine.info()``."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "max_entries": self.max_entries,
        }

    def _get(self, key, build):
        entries = self._entries
        try:
            value, delta = entries[key]
        except KeyError:
            pass
        else:
            self.hits += 1
            entries.move_to_end(key)
            return value, delta
        self.misses += 1
        delta = SearchStats()
        value = build(delta)
        entries[key] = (value, delta)
        if self.max_entries is not None:
            while len(entries) > self.max_entries:
                entries.popitem(last=False)
                self.evictions += 1
        return value, delta

    # ------------------------------------------------------------------
    # the artifacts
    # ------------------------------------------------------------------

    def preprocess(self, d, s, enabled):
        """The full-graph vertex-deletion fixed point, greedy's prefix.

        Its core masks bound every greedy candidate.  The build starts
        from the layer cores the frozen graph keeps, so after a
        delta-rebind only the touched layers are re-peeled.
        """
        def build(delta):
            return vertex_deletion(self.graph, d, s, enabled=enabled,
                                   stats=delta)

        return self._get(("preprocess", d, s, enabled), build)
