"""Per-graph artifact cache: reuse across queries, replayed counters.

A search session asks many related questions of one graph, and the
expensive prefixes repeat: the per-layer d-core decomposition and its
vertex-deletion fixed point depend only on ``(d, s, vertex-deletion
flag)``, the InitTopK seeds add ``k``, and the top-down hierarchy index
depends on the surviving vertex set.  :class:`ArtifactCache` memoises
those artifacts per graph, keyed by their parameters.  Each layer's
full-graph d-core and each layer subset's d-CC (top-down's root, the
greedy candidates, the InitTopK seeds) are not among them: a frozen
graph keeps those itself (:class:`~repro.graph.frozen.LayerCoreMemo`),
and a patched graph keeps the ones whose layers a delta left alone.

**The counter-replay contract.** Reported :class:`SearchStats` are part
of this repo's bitwise-determinism guarantee, and a cache that silently
skipped work would make a warm query report fewer ``dcc_calls`` than a
cold one.  So every entry stores ``(value, stats delta)``: the build
runs against a private stats object, and *every* lookup — hit or miss —
hands the caller that delta to merge.  A warm query therefore reports
exactly the counters of a cold one, verified property-wise in
``tests/test_engine.py``.

Cached values are normalised to immutable shapes (frozensets, tuples) so
sharing across queries cannot alias mutable state.  Invalidation is the
owning engine's job: the cache itself trusts its graph never to change,
which :class:`repro.engine.DCCEngine` enforces through the graph's
``mutation_version``.

**Bounds.** By default the cache is unbounded — correct for one graph's
parameter space, where an engine serves a handful of ``(d, s, k)``
combinations.  A multi-graph host keeps many caches alive at once, so
the constructor accepts ``max_entries`` (LRU discard beyond the cap) and
``ttl`` (entries older than ``ttl`` seconds are rebuilt on next lookup).
Eviction never affects results: a re-looked-up artifact is rebuilt by
the same pure function and charges the same stats delta, so warm results
stay bitwise identical to cold ones across any eviction schedule
(property-tested in ``tests/test_engine.py``).
"""

import time
from collections import OrderedDict

from repro.core.index import CoreHierarchyIndex
from repro.core.initk import init_topk
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
    ttl:
        Seconds an entry stays servable; expired entries are rebuilt on
        their next lookup.  ``None`` (default) never expires.
    clock:
        Monotonic time source, injectable for deterministic TTL tests.
    """

    def __init__(self, graph, max_entries=None, ttl=None,
                 clock=time.monotonic):
        if max_entries is not None and (
                isinstance(max_entries, bool)
                or not isinstance(max_entries, int) or max_entries < 1):
            raise ParameterError(
                "max_entries must be None or a positive integer, "
                "got {!r}".format(max_entries)
            )
        if ttl is not None and (
                isinstance(ttl, bool)
                or not isinstance(ttl, (int, float)) or not ttl > 0):
            raise ParameterError(
                "ttl must be None or a positive number of seconds, "
                "got {!r}".format(ttl)
            )
        self.graph = graph
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self):
        return len(self._entries)

    def rebind(self, graph, touched_layers):
        """Retarget the cache at a post-delta graph.

        ``touched_layers`` names the layers whose edge sets the delta
        changed (the vertex set must be unchanged — structural deltas
        rebuild the whole session and never reach here).  Every artifact
        (``preprocess``, ``init-topk``, ``index``) depends on every
        layer, so a touched layer drops them all; the layer cores and
        d-CCs of untouched layers outlive the delta in the patched
        frozen graph.
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
            "expirations": self.expirations,
            "max_entries": self.max_entries,
            "ttl": self.ttl,
        }

    def _get(self, key, build):
        entries = self._entries
        try:
            value, delta, stamp = entries[key]
        except KeyError:
            pass
        else:
            if self.ttl is None or self._clock() - stamp <= self.ttl:
                self.hits += 1
                entries.move_to_end(key)
                return value, delta
            # Expired: rebuild below.  The rebuild recomputes the same
            # pure function, so the fresh value and delta are identical
            # to the ones just dropped.
            del entries[key]
            self.expirations += 1
        self.misses += 1
        delta = SearchStats()
        value = build(delta)
        entries[key] = (value, delta, self._clock())
        if self.max_entries is not None:
            while len(entries) > self.max_entries:
                entries.popitem(last=False)
                self.evictions += 1
        return value, delta

    # ------------------------------------------------------------------
    # the artifacts
    # ------------------------------------------------------------------

    def preprocess(self, d, s, enabled):
        """The vertex-deletion fixed point (cores, alive set, support).

        The cores are the per-layer d-core decomposition restricted to
        the surviving vertices — the artifact every method's planning
        starts from.  Normalised in place to immutable shapes before
        caching.  The build starts from the layer cores the frozen graph
        keeps, so after a delta-rebind only the touched layers are
        re-peeled.
        """
        def build(delta):
            prep = vertex_deletion(self.graph, d, s, enabled=enabled,
                                   stats=delta)
            prep.alive = frozenset(prep.alive)
            prep.cores = [frozenset(core) for core in prep.cores]
            return prep

        return self._get(("preprocess", d, s, enabled), build)

    def init_sets(self, d, s, k, vd_enabled, prep):
        """The InitTopK seeds as replayable ``(label, frozenset)`` pairs."""
        def build(delta):
            cores, alive = prep.kernel_view()
            topk = init_topk(self.graph, d, s, k, cores, within=alive,
                             stats=delta)
            return tuple(
                (label, frozenset(members))
                for label, members in topk.labelled_sets()
            )

        return self._get(("init-topk", d, s, k, vd_enabled), build)

    def hierarchy_index(self, d, s, vd_enabled, prep):
        """The top-down hierarchy index over the preprocessed graph.

        The index object is shared between queries; it is read-only
        after construction apart from its internal scope memo, whose
        values are themselves pure functions of the index.
        """
        def build(delta):
            return CoreHierarchyIndex(self.graph, d,
                                      within=prep.kernel_view()[1],
                                      stats=delta)

        return self._get(("index", d, s, vd_enabled), build)
