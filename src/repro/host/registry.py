"""The multi-graph engine host: a registry of sessions under one roof.

:class:`DCCHost` is the layer above :class:`repro.engine.DCCEngine` the
ROADMAP's serving track calls for: one process serving d-CC queries over
*many* graphs.  Each attached graph gets a named registration; an engine
session (backend resolution, worker pool, artifact cache)
is **admitted** lazily on first use and stays resident until admission
control pushes it out.

Admission control has two levers, both enforced at admission time:

* ``max_engines`` — at most this many engine sessions are resident at
  once.  Admitting one more evicts the least-recently-used session
  first, and eviction *closes* the victim's engine, shutting its worker
  pool down — an evicted graph holds no processes, no artifact cache
  and no frozen conversion, only its registration.
* ``memory_budget_bytes`` — a global cap on the summed
  ``engine.memory_bytes()`` of resident sessions (the resolved search
  graphs plus whatever lazy caches queries actually built).  While the
  total exceeds the budget, LRU sessions are evicted — except the one
  being admitted, because evicting the session about to serve would
  just thrash.  The budget is therefore best-effort by design: a single
  graph larger than the budget still serves, with every *other* session
  evicted around it.

Re-admission is cold but **exact**: a re-admitted graph gets a fresh
engine over the same registered graph object, and the engine layer's
determinism contract (see ``repro/engine/session.py``) makes its
results and counters bitwise identical to the pre-eviction session and
to a fresh single-graph :class:`DCCEngine` — eviction can cost latency,
never correctness (property-tested in ``tests/test_host.py``).

Host-owned engines run with a *bounded* artifact cache
(``cache_max_entries`` / ``cache_ttl`` forwarded to
:class:`repro.engine.cache.ArtifactCache`), unlike a standalone engine,
whose cache stays unbounded by default — one graph's parameter space is
self-limiting, a fleet of them is not.

Like the engine, a host is not thread-safe; it is the synchronous
substrate the planned async front-end will wrap.
"""

from collections import OrderedDict
from contextlib import contextmanager

from repro.engine import DCCEngine
from repro.graph.backend import check_backend, check_graph
from repro.parallel.executor import check_jobs
from repro.utils.errors import (
    HostClosedError,
    ParameterError,
    UnknownGraphError,
)

# Default cap on resident engine sessions.  Deliberately small: every
# resident session can hold a worker pool (processes!) plus a frozen
# conversion, and re-admission is exact, so erring low costs latency on
# cold graphs rather than memory on hot ones.
DEFAULT_MAX_ENGINES = 4

# Default artifact-cache entry cap for host-owned engines.  Each entry
# is one preprocess fixed point / seed list / hierarchy index; a few
# hundred covers any realistic parameter sweep over one graph.
DEFAULT_CACHE_MAX_ENTRIES = 256


class _Registration:
    """One attached graph plus its per-graph engine overrides."""

    __slots__ = ("graph", "backend", "jobs", "cache_artifacts")

    def __init__(self, graph, backend, jobs, cache_artifacts):
        self.graph = graph
        self.backend = backend
        self.jobs = jobs
        self.cache_artifacts = cache_artifacts


class DCCHost:
    """A registry of named :class:`DCCEngine` sessions over many graphs.

    Parameters
    ----------
    max_engines:
        Resident-session cap (default :data:`DEFAULT_MAX_ENGINES`);
        admission beyond it evicts LRU sessions, closing their pools.
    memory_budget_bytes:
        Optional global cap on summed resident ``memory_bytes()``; LRU
        sessions are evicted while the total exceeds it (the session
        being admitted is never the victim).
    backend / jobs / cache_artifacts:
        Host-wide engine defaults, overridable per graph at
        :meth:`attach` time.
    cache_max_entries / cache_ttl:
        Artifact-cache bounds every host-owned engine runs with
        (default: :data:`DEFAULT_CACHE_MAX_ENTRIES` entries, no TTL).

    Use as a context manager (or call :meth:`close`) so every resident
    pool shuts down deterministically::

        with DCCHost(max_engines=2, jobs=2) as host:
            host.attach("ppi", ppi_graph)
            host.attach("wiki", wiki_graph, backend="frozen")
            a = host.search("ppi", d=3, s=2, k=2)
            rest = host.search_many([
                {"graph": "wiki", "d": 2, "s": 2, "k": 4},
                {"graph": "ppi", "d": 3, "s": 2, "k": 2},
            ])
    """

    def __init__(self, max_engines=DEFAULT_MAX_ENGINES,
                 memory_budget_bytes=None, backend="auto", jobs=0,
                 cache_artifacts=True,
                 cache_max_entries=DEFAULT_CACHE_MAX_ENTRIES,
                 cache_ttl=None):
        if isinstance(max_engines, bool) or not isinstance(max_engines, int) \
                or max_engines < 1:
            raise ParameterError(
                "max_engines must be a positive integer, got {!r}".format(
                    max_engines
                )
            )
        if memory_budget_bytes is not None and (
                isinstance(memory_budget_bytes, bool)
                or not isinstance(memory_budget_bytes, (int, float))
                or not memory_budget_bytes > 0):
            raise ParameterError(
                "memory_budget_bytes must be None or a positive number "
                "of bytes, got {!r}".format(memory_budget_bytes)
            )
        check_backend(backend)
        check_jobs(jobs)
        self.max_engines = max_engines
        self.memory_budget_bytes = memory_budget_bytes
        self._backend = backend
        self._jobs = jobs
        self._cache_artifacts = cache_artifacts
        self._cache_max_entries = cache_max_entries
        self._cache_ttl = cache_ttl
        self._registry = OrderedDict()
        self._resident = OrderedDict()  # name -> DCCEngine, LRU order
        self._pins = {}  # name -> lease count; pinned sessions never evict
        self._closed = False
        self.admissions = 0
        self.evictions = 0
        self.searches_served = 0

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------

    def attach(self, name, graph, backend=None, jobs=None,
               cache_artifacts=None):
        """Register ``graph`` under ``name``; no session is admitted yet.

        Engine overrides left as ``None`` inherit the host-wide
        defaults.  Names are unique — re-attaching a live name raises
        (detach first, which also closes any resident session).
        """
        self._check_open()
        if not isinstance(name, str) or not name:
            raise ParameterError(
                "graph name must be a non-empty string, got {!r}".format(name)
            )
        if name in self._registry:
            raise ParameterError(
                "a graph named {!r} is already attached; detach it "
                "first".format(name)
            )
        # Validate the graph and overrides now, not at admission: a
        # poison registration discovered mid-eviction would already have
        # closed the LRU victim's warm pool for nothing.
        check_graph(graph)
        if backend is not None:
            check_backend(backend)
        if jobs is not None:
            check_jobs(jobs)
        self._registry[name] = _Registration(
            graph,
            self._backend if backend is None else backend,
            self._jobs if jobs is None else jobs,
            self._cache_artifacts if cache_artifacts is None
            else cache_artifacts,
        )
        return self

    def detach(self, name):
        """Drop a registration, closing its resident session if any."""
        self._check_open()
        if name not in self._registry:
            raise UnknownGraphError(name, self._registry)
        if self._pins.get(name):
            raise ParameterError(
                "graph {!r} is pinned (its session is serving); detach "
                "after the lease is released".format(name)
            )
        if name in self._resident:
            self._evict(name)
        del self._registry[name]

    def is_attached(self, name):
        """Whether a graph is registered under ``name``."""
        return name in self._registry

    def graph(self, name):
        """The registered source graph behind ``name``."""
        try:
            return self._registry[name].graph
        except KeyError:
            raise UnknownGraphError(name, self._registry) from None

    def names(self):
        """The attached graph names, in attachment order."""
        return tuple(self._registry)

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------

    def engine(self, name):
        """The resident engine for ``name``, admitting it if needed.

        Touching an engine marks it most-recently-used.  The returned
        session stays valid until the host evicts it (a later admission
        under pressure) — callers holding one across other host calls
        should re-acquire rather than cache it.
        """
        self._check_open()
        try:
            registration = self._registry[name]
        except KeyError:
            raise UnknownGraphError(name, self._registry) from None
        engine = self._resident.get(name)
        if engine is not None:
            self._resident.move_to_end(name)
            return engine
        # Admission: make room first, so the resident count never
        # transiently exceeds the cap (pools are processes).  Pinned
        # sessions are skipped — evicting one would close a pool with
        # requests in flight.  If *every* resident session is pinned the
        # cap is transiently exceeded instead (sync callers never pin,
        # and the async front-end bounds concurrently-leased graphs by
        # this same cap, so overshoot is at most one session and
        # :meth:`unpin` shrinks back).
        while len(self._resident) >= self.max_engines:
            victim = self._eviction_candidate()
            if victim is None:
                break
            self._evict(victim)
        engine = DCCEngine(
            registration.graph,
            backend=registration.backend,
            jobs=registration.jobs,
            cache_artifacts=registration.cache_artifacts,
            cache_max_entries=self._cache_max_entries,
            cache_ttl=self._cache_ttl,
        )
        self._resident[name] = engine
        self.admissions += 1
        self._enforce_budget(keep=name)
        return engine

    def _eviction_candidate(self, keep=None):
        """The LRU resident session that may be evicted, or ``None``.

        Pinned sessions (and ``keep``) are never candidates: a pin marks
        an engine with requests in flight, and eviction *closes* pools.
        """
        for name in self._resident:
            if name != keep and not self._pins.get(name):
                return name
        return None

    def _evict(self, name):
        """Close and drop one resident session; its registration stays."""
        engine = self._resident.pop(name)
        engine.close()
        self.evictions += 1

    def _enforce_budget(self, keep):
        """Evict LRU sessions while over the global memory budget.

        The budget compares against :meth:`memory_bytes`, the summed
        resident bytes of every admitted session.  ``keep`` (the session
        just admitted or touched) is never the victim: evicting the
        engine about to serve would thrash.  With
        only ``keep`` (or only pinned sessions) left the loop stops —
        the budget is best-effort for a single oversized graph.
        """
        if self.memory_budget_bytes is None:
            return
        while len(self._resident) > 1 and \
                self.memory_bytes() > self.memory_budget_bytes:
            victim = self._eviction_candidate(keep=keep)
            if victim is None:
                break
            self._evict(victim)

    # ------------------------------------------------------------------
    # pinning (the async front-end's eviction guard)
    # ------------------------------------------------------------------

    def pin(self, name):
        """Exempt ``name``'s session from eviction until :meth:`unpin`.

        Pins are counted leases on the *name* (pinning does not admit;
        combine with :meth:`engine`, or use :meth:`lease` which does
        both in the right order).  A pinned session is never an eviction
        victim — the guard the async front-end relies on so admitting
        graph B cannot close graph A's pool while A still has shard
        futures in flight.
        """
        self._check_open()
        if name not in self._registry:
            raise UnknownGraphError(name, self._registry)
        self._pins[name] = self._pins.get(name, 0) + 1

    def unpin(self, name):
        """Release one pin; on the last release, re-enforce the cap."""
        count = self._pins.get(name, 0)
        if count <= 0:
            raise ParameterError(
                "graph {!r} is not pinned".format(name)
            )
        if count == 1:
            del self._pins[name]
            # Pay back any overshoot admission ran up while every
            # resident session was pinned.
            while len(self._resident) > self.max_engines:
                victim = self._eviction_candidate()
                if victim is None:
                    break
                self._evict(victim)
        else:
            self._pins[name] = count - 1

    @contextmanager
    def lease(self, name):
        """Pin ``name``, admit its engine, yield it, unpin on exit.

        The serving idiom for callers that must hold an engine across
        other host activity (the async dispatchers)::

            with host.lease("wiki") as engine:
                handle = engine.submit(d=2, s=2, k=4)
                ...  # other graphs may be admitted meanwhile

        The pin lands *before* admission so a concurrent admission
        cannot evict the session between :meth:`engine` returning and
        the caller using it.
        """
        self.pin(name)
        try:
            yield self.engine(name)
        finally:
            self.unpin(name)

    def resident(self):
        """Names of resident sessions, least recently used first."""
        return tuple(self._resident)

    def memory_bytes(self):
        """Summed resident bytes of every admitted session's graph."""
        return sum(
            engine.memory_bytes() for engine in self._resident.values()
        )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def search(self, name, d, s, k, method="auto", **options):
        """One search against the named graph's (possibly cold) session.

        Exactly :meth:`DCCEngine.search` after admission — same surface,
        same bitwise-determinism contract.
        """
        result = self.engine(name).search(d, s, k, method=method, **options)
        self.searches_served += 1
        return result

    def search_many(self, queries):
        """Serve a batch of specs spanning any number of graphs.

        ``queries`` is an iterable of dicts, each a
        :meth:`DCCEngine.search_many` spec plus a ``"graph"`` key naming
        an attached graph.  Results come back in input order, each
        bitwise identical to the corresponding :meth:`search` call.
        Specs are grouped by graph and each group pipelines through its
        engine's batch API, so a mixed batch pays one admission per
        distinct graph, not one per query — under a tight
        ``max_engines`` this is also what keeps eviction churn at one
        admission per group rather than per alternation.
        """
        self._check_open()
        parsed = []
        for number, entry in enumerate(queries, 1):
            entry = dict(entry)
            name = entry.pop("graph", None)
            if name is None:
                raise ParameterError(
                    "batch query {} ({!r}) is missing the \"graph\" key "
                    "naming an attached graph".format(number, entry)
                )
            if name not in self._registry:
                raise UnknownGraphError(name, self._registry)
            parsed.append((name, entry))
        groups = OrderedDict()
        for index, (name, entry) in enumerate(parsed):
            groups.setdefault(name, []).append((index, entry))
        results = [None] * len(parsed)
        for name, members in groups.items():
            batch = self.engine(name).search_many(
                [entry for _, entry in members]
            )
            for (index, _), result in zip(members, batch):
                results[index] = result
        self.searches_served += len(parsed)
        return results

    # ------------------------------------------------------------------
    # lifecycle / status
    # ------------------------------------------------------------------

    def close(self):
        """Evict every resident session; further host calls raise."""
        if not self._closed:
            self._closed = True
            while self._resident:
                engine = self._resident.popitem(last=False)[1]
                engine.close()
                self.evictions += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _check_open(self):
        if self._closed:
            raise HostClosedError()

    def info(self):
        """Registry, admission and per-session status for monitoring."""
        engines = {}
        for name, engine in self._resident.items():
            status = engine.info()
            engines[name] = {
                "workers": status["workers"],
                "pool_spawned": status["pool_spawned"],
                "searches_served": status["searches_served"],
                "cache_entries": status["cache_entries"],
                "cache_hits": status["cache_hits"],
                "cache_misses": status["cache_misses"],
                "cache_evictions": status["cache_evictions"],
                "memory_bytes": status["memory_bytes"],
                "invalidations": status["invalidations"],
                # Streaming-update picture: patch-vs-rebuild rebinds,
                # what the selective artifact invalidation kept, and
                # how the source's freeze() amortised.
                "rebinds_patched": status["rebinds_patched"],
                "rebinds_full": status["rebinds_full"],
                "cache_layer_core_hits": status["cache_layer_core_hits"],
                "cache_layer_core_misses":
                    status["cache_layer_core_misses"],
                "cache_invalidations_kept":
                    status["cache_invalidations_kept"],
                "cache_invalidations_dropped":
                    status["cache_invalidations_dropped"],
                "freeze_patches": status["freeze_patches"],
                "freeze_rebuilds": status["freeze_rebuilds"],
            }
        return {
            "attached": len(self._registry),
            "attached_names": tuple(self._registry),
            "resident_engines": tuple(self._resident),
            "pinned": tuple(sorted(self._pins)),
            "max_engines": self.max_engines,
            "memory_budget_bytes": self.memory_budget_bytes,
            "memory_bytes": self.memory_bytes(),
            "admissions": self.admissions,
            "evictions": self.evictions,
            "searches_served": self.searches_served,
            "cache_max_entries": self._cache_max_entries,
            "cache_ttl": self._cache_ttl,
            "engines": engines,
            "closed": self._closed,
        }
