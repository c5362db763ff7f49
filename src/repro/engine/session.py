"""The persistent search engine: one graph, many queries.

:class:`DCCEngine` is the session layer the one-shot
:func:`repro.core.api.search_dccs` hides: it owns a graph for its
lifetime and keeps everything a repeated search would otherwise rebuild —
the frozen search graph (one freeze, patched after deltas), a persistent
worker pool whose processes hold the deserialized graph between queries
(:class:`~repro.parallel.executor.WorkerPool`) and a per-graph artifact
cache with counter replay (:class:`~repro.engine.cache.ArtifactCache`).

**Result contract.** ``engine.search(...)`` is bitwise identical — sets,
labels and aggregated counters — to ``search_dccs(..., jobs=None)`` for
every method and every ``jobs`` value, warm or cold, for a
``MultiLayerGraph`` or a frozen graph (property-tested in
``tests/test_engine.py`` and ``tests/test_api.py``).  Bottom-up and
top-down run their sequential algorithms in process on the engine's
frozen graph; greedy queries fan out over the worker pool, whose merged
answer equals the sequential ``gd_dccs`` (see :mod:`repro.parallel`).

**Invalidation contract.** The engine snapshots its source graph's
``mutation_version`` at bind time and checks it twice per search: before
submission *and again after collecting results*.  Any mutation of the
underlying :class:`MultiLayerGraph` — even one that leaves the topology
equivalent — rebinds the session: frozen conversion, artifact cache and
worker pool are discarded and rebuilt from the mutated graph.  The
collect-time re-check closes the check-then-act window where a mutation
lands between the pre-search check and worker submission: on mismatch
the engine rebinds and retries the search once against the fresh
snapshot, so the in-flight results computed from the stale graph are
discarded rather than delivered.  If the graph has mutated *again* by
the time the retry collects, the search raises
:class:`~repro.utils.errors.StaleResultError` — the session is already
rebound, so retrying the call is safe — rather than deliver either
attempt.  A stale answer is never returned; the cost of mutation is a
cold next query.

Engines are not thread-safe (one pool, one artifact cache); share
the *graph* across engines, not an engine across threads.  The
collect-time re-check defends against a *writer* thread mutating the
graph while a single serving thread searches — the one cross-thread
interaction the session boundary has to tolerate.
"""

from repro.core.api import check_stats, resolve_method
from repro.core.dcc import validate_search_params
from repro.core.stats import SearchStats
from repro.engine.cache import ArtifactCache
from repro.graph.backend import (
    check_graph,
    resolve_search_graph,
    translate_result,
)
from repro.parallel.executor import WorkerPool, check_jobs
from repro.parallel.plan import make_query
from repro.parallel.search import start_query
from repro.utils.errors import (
    EngineClosedError,
    ParameterError,
    StaleResultError,
)
from repro.utils.timer import Timer


class DCCEngine:
    """A reusable d-CC search session over one multi-layer graph.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.multilayer.MultiLayerGraph` or an
        already-frozen :class:`~repro.graph.frozen.FrozenMultiLayerGraph`.
        Results are reported in this graph's vocabulary, exactly like
        ``search_dccs``; a ``MultiLayerGraph`` is frozen once per
        session instead of once per call.
    jobs:
        Size of the pool greedy queries fan out over, with the usual
        semantics (``0`` = one worker per CPU this process may run on,
        default; a process confined to one CPU therefore runs inline);
        ``None`` is accepted as an alias for ``1``, i.e. inline
        execution with no worker processes.  Bottom-up and top-down
        never use the pool.  The pool spawns lazily; call :meth:`warm`
        to pay the spawn cost up front.
    cache_max_entries:
        Entry cap forwarded to the :class:`ArtifactCache`.  ``None``
        (default) keeps a standalone engine's cache unbounded;
        :class:`repro.host.DCCHost` passes a cap so many resident
        engines cannot grow without limit.  Eviction never changes
        results or counters (see the cache's docstring).

    Use as a context manager (or call :meth:`close`) so the worker
    processes shut down deterministically; an abandoned engine's pool is
    additionally shut down by a ``weakref.finalize`` safety net at
    garbage collection or interpreter exit (see
    :class:`~repro.parallel.executor.WorkerPool`)::

        with DCCEngine(graph, jobs=2) as engine:
            first = engine.search(d=3, s=2, k=2)
            wider = engine.search(d=3, s=2, k=4)
    """

    def __init__(self, graph, jobs=0, cache_max_entries=None):
        check_graph(graph)
        check_jobs(jobs)
        self._source = graph
        self._jobs = jobs
        self._cache_max_entries = cache_max_entries
        self._closed = False
        self.searches_served = 0
        self.invalidations = 0
        self.rebinds_patched = 0
        self.rebinds_full = 0
        self._bind()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _bind(self):
        """(Re)derive every per-graph resource from the source graph.

        The freeze cost (O(n + m) for a ``MultiLayerGraph``) is
        remembered and charged to the next search's elapsed time, so
        session timings stay comparable with one-shot ``search_dccs``.
        """
        with Timer() as overhead:
            search_graph, translate = resolve_search_graph(self._source)
        self._graph = search_graph
        self._translate = translate
        self._pending_overhead = overhead.elapsed
        self._version = self._source.mutation_version
        self._pool = WorkerPool(self._graph, self._jobs)
        self._cache = ArtifactCache(self._graph,
                                    max_entries=self._cache_max_entries)

    def _rebind_if_stale(self):
        """Rebind when the source graph mutated; whether a rebind happened.

        The source graph mutating under the session means the frozen
        conversion, every cached artifact and the graphs held by the
        worker processes all describe a graph that no longer exists.
        When the graph can say *what* changed (a non-structural
        :meth:`delta_since` against the bound version), the session is
        patched in place — CSR layers re-frozen selectively, artifact
        cache invalidated only where the delta touches, the delta (not
        the graph) shipped to live workers.  Otherwise everything is
        rebuilt from scratch.  Either way, stale is never answered.
        """
        if self._source.mutation_version == self._version:
            return False
        self.invalidations += 1
        if self._try_delta_rebind():
            self.rebinds_patched += 1
            return True
        self.rebinds_full += 1
        self._pool.close()
        self._bind()
        return True

    def _try_delta_rebind(self):
        """Patch the live session onto the mutated graph; whether it worked.

        Requires the source to produce a non-structural delta covering
        the versions since the last bind (vertex-set changes shift the
        frozen dense-id assignment, so they always rebuild).  The worker
        pool survives; the artifact cache drops its artifacts, and a
        patched frozen graph keeps the untouched layers' cores.
        """
        delta_since = getattr(self._source, "delta_since", None)
        if delta_since is None:
            return False
        delta = delta_since(self._version)
        if delta is None or delta.structural:
            return False
        with Timer() as overhead:
            # This re-runs freeze(), which patches its cached CSR per
            # the delta instead of rebuilding it.
            search_graph, translate = resolve_search_graph(self._source)
        self._graph = search_graph
        self._translate = translate
        self._pending_overhead += overhead.elapsed
        self._pool.apply_delta(search_graph, delta)
        self._cache.rebind(search_graph, delta.touched_layers())
        self._version = self._source.mutation_version
        return True

    def _ensure_current(self):
        if self._closed:
            raise EngineClosedError()
        self._rebind_if_stale()

    def warm(self):
        """Spawn the worker pool now; returns whether workers are live.

        Sweeps and benchmarks call this so process-spawn cost lands
        outside per-query timers (see ``docs/experiments.md``).
        """
        self._ensure_current()
        return self._pool.warm()

    def close(self):
        """Shut down the worker pool; further searches raise."""
        if not self._closed:
            self._closed = True
            self._pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    @property
    def graph(self):
        """The resolved search graph (may be an internal frozen copy)."""
        return self._graph

    @property
    def source_graph(self):
        """The graph the engine was constructed over."""
        return self._source

    def search(self, d, s, k, method="auto", **options):
        """One search through the warm session; a :class:`DCCSResult`.

        Accepts exactly the ``search_dccs`` method/option surface
        (``seed`` for top-down, preprocessing and pruning switches,
        ``stats``) and reports sets in the source graph's vocabulary.
        """
        return self.submit(d, s, k, method=method, **options).collect()

    def submit(self, d, s, k, method="auto", **options):
        """Start one search without blocking; a :class:`SearchHandle`.

        The submission half of :meth:`search`: the query is validated
        and started on the caller's thread.  A greedy query is planned
        (preprocessing runs now) and its shard tasks handed to the
        worker pool, and control returns while workers execute; a
        bottom-up or top-down query runs its whole sequential search
        now, in process, so its handle has nothing in flight.
        ``handle.collect()`` returns the result and carries the full
        :meth:`search` delivery semantics, staleness retry included;
        ``handle.waitables()`` exposes the in-flight shard futures so an
        async caller can await completion before collecting.  Handles of
        one engine must be collected in submission order (the
        pipelining contract of the pool).
        """
        self._ensure_current()
        user_stats = check_stats(options.pop("stats", None))
        return SearchHandle(self, (d, s, k, method, options),
                            self._start(d, s, k, method, options),
                            user_stats, self._version)

    def _start(self, d, s, k, method, options):
        """Start one attempt on a private stats object (see
        :func:`~repro.parallel.search.start_query`)."""
        query = self._query_for(d, s, k, method, dict(options))
        return start_query(self._graph, query, self._pool,
                           stats=SearchStats(), artifacts=self._cache)

    def memory_bytes(self):
        """Resident bytes of the session's search graph.

        The hook :class:`repro.host.DCCHost` feeds its global memory
        budget from.  Counts the frozen search graph (CSR arrays plus
        whatever lazy caches queries actually built, its layer cores
        included); the caller-owned source graph is not charged to the
        session.
        """
        return self._graph.memory_bytes()

    def info(self):
        """Pool and cache status for monitoring (and ``repro info``)."""
        cache_stats = self._cache.stats()
        # The per-layer cores live in the frozen graph's memo, which a
        # patched graph continues.
        memo = self._graph.core_memo
        return {
            "translate_results": self._translate,
            "workers": self._pool.workers,
            "pool_spawned": self._pool.spawned,
            "pool_inline_fallback": self._pool.inline_fallback,
            "pool_queries_served": self._pool.queries_served,
            "pool_tasks_executed": self._pool.tasks_executed,
            "searches_served": self.searches_served,
            "cache_entries": cache_stats["entries"],
            "cache_hits": cache_stats["hits"],
            "cache_misses": cache_stats["misses"],
            "cache_evictions": cache_stats["evictions"],
            "cache_layer_core_hits": memo.hits,
            "cache_layer_core_misses": memo.misses,
            "cache_invalidations_kept": memo.kept,
            "cache_invalidations_dropped": memo.dropped,
            "memory_bytes": self.memory_bytes(),
            "invalidations": self.invalidations,
            "rebinds_patched": self.rebinds_patched,
            "rebinds_full": self.rebinds_full,
            "freeze_patches": getattr(self._source, "freeze_patches", 0),
            "freeze_rebuilds": getattr(self._source, "freeze_rebuilds", 0),
            "pool_deltas_shipped": self._pool.deltas_shipped,
            "pool_delta_respawns": self._pool.delta_respawns,
            "mutation_version": self._version,
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _query_for(self, d, s, k, method, options):
        # Validate before anything starts: a malformed spec fails at
        # submission, with no shard in flight.
        validate_search_params(self._graph, d, s, k)
        method = resolve_method(self._graph.num_layers, method, s, options)
        return make_query(method, d, s, k, **options)

    def _deliver(self, result, user_stats=None):
        # Back to the source graph's labels, on the clock, exactly as
        # the one-shot path does.
        translate_result(self._graph, self._translate, result,
                         self._pending_overhead)
        self._pending_overhead = 0.0
        if user_stats is not None:
            # The search ran against a private stats object (so a
            # discarded stale attempt leaves no trace); fold the final
            # attempt's counters into the caller's accumulator, which
            # stays the object the result reports — one-shot semantics.
            user_stats.merge(result.stats)
            result.stats = user_stats
        self.searches_served += 1
        return result


class SearchHandle:
    """One submitted search; :meth:`collect` finishes it.

    Returned by :meth:`DCCEngine.submit`.  Between submission and
    collection a greedy query's shard tasks are in flight on the
    engine's worker pool; :meth:`waitables` exposes their futures so an
    async front-end can await completion without parking a thread inside
    :meth:`collect`.  A bottom-up or top-down handle was answered at
    submission and has none.  Collection carries the engine's full delivery
    semantics — label translation, overhead charging, the collect-time
    staleness re-check with its single retry (the retry resubmits and
    blocks, so after awaiting the first attempt's futures a rare
    concurrent mutation still costs a synchronous re-run rather than a
    stale answer).

    The handle remembers the bind version it was submitted under.
    Other engine calls may land between submit and collect (the async
    dispatcher pipelines submissions) and one of them may *consume* a
    concurrent mutation by rebinding first — the engine then looks
    current again, but this handle's attempt still rode the old
    snapshot and the old (now closed) pool.  Comparing against the
    remembered version catches that: the attempt is discarded without
    touching its cancelled futures and the search re-runs against the
    live bind, so a stale answer is never delivered and a routine
    rebind is never misread as a worker crash.
    """

    __slots__ = ("_engine", "_spec", "_pending", "_user_stats",
                 "_bound_version", "_collected")

    def __init__(self, engine, spec, pending, user_stats, bound_version):
        self._engine = engine
        self._spec = spec
        self._pending = pending
        self._user_stats = user_stats
        self._bound_version = bound_version
        self._collected = False

    def waitables(self):
        """In-flight shard futures (empty when nothing runs on workers)."""
        return self._pending.waitables()

    def collect(self):
        """Block for the results; the search's :class:`DCCSResult`.

        Bitwise identical — sets, labels, counters — to the equivalent
        :meth:`DCCEngine.search` call.  May be called once.
        """
        if self._collected:
            raise ParameterError(
                "this SearchHandle has already been collected"
            )
        self._collected = True
        engine = self._engine
        pending = self._pending
        bound = self._bound_version
        for attempt in range(2):
            if engine._closed:
                raise EngineClosedError()
            if engine._version == bound:
                result = pending.finish(engine._pool)
                # Deliver only if the source never mutated while this
                # attempt ran: the engine must still be on the attempt's
                # bind *and* that bind must still match the source.
                if not engine._rebind_if_stale() and \
                        engine._version == bound:
                    return engine._deliver(result, self._user_stats)
            if attempt == 0:
                # The attempt's snapshot is dead — either the graph
                # mutated while it was in flight, or another engine call
                # already rebound underneath it.  Resubmit against the
                # current bind and block for the retry.
                d, s, k, method, options = self._spec
                engine._ensure_current()
                pending = engine._start(d, s, k, method, options)
                bound = engine._version
        # Mutated during the original attempt *and* its retry: the
        # never-stale contract forbids delivering either result.  The
        # session is already rebound, so the caller can simply retry.
        raise StaleResultError()
