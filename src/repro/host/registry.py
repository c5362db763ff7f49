"""The multi-graph engine host: a registry of sessions under one roof.

:class:`DCCHost` is the layer above :class:`repro.engine.DCCEngine` the
ROADMAP's serving track calls for: one process serving d-CC queries over
*many* graphs.  Each attached graph gets a named registration; an engine
session (frozen search graph, worker pool, artifact cache)
is **admitted** lazily on first use and stays resident until admission
control pushes it out.

Admission control has two levers, both enforced at admission time:

* ``max_engines`` — at most this many engine sessions are resident at
  once.  Admitting one more evicts the least-recently-used session
  first, and eviction *closes* the victim's engine, shutting its worker
  pool down — an evicted graph holds no processes, no artifact cache
  and no frozen conversion, only its registration.
* ``memory_budget_bytes`` — a global cap on the summed
  ``engine.memory_bytes()`` of resident sessions (the frozen search
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
(``cache_max_entries`` forwarded to
:class:`repro.engine.cache.ArtifactCache`), unlike a standalone engine,
whose cache stays unbounded by default — one graph's parameter space is
self-limiting, a fleet of them is not.

Like the engine, a host is not thread-safe; it is the synchronous
substrate :class:`repro.aio.AsyncDCCHost` wraps, and batches (``repro
batch``, ``repro host``) run through that async front-end.
"""

from collections import OrderedDict
from contextlib import contextmanager

from repro.engine import DCCEngine
from repro.graph.backend import check_graph
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
# is one greedy full-graph fixed point, one per (d, s, deletion flag);
# a few hundred covers any realistic parameter sweep over one graph.
DEFAULT_CACHE_MAX_ENTRIES = 256


class _Registration:
    """One attached graph plus its per-graph pool size."""

    __slots__ = ("graph", "jobs")

    def __init__(self, graph, jobs):
        self.graph = graph
        self.jobs = jobs


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
    jobs:
        Host-wide engine pool size, overridable per graph at
        :meth:`attach` time.
    cache_max_entries:
        Artifact-cache entry cap every host-owned engine runs with
        (default: :data:`DEFAULT_CACHE_MAX_ENTRIES`).

    Use as a context manager (or call :meth:`close`) so every resident
    pool shuts down deterministically::

        with DCCHost(max_engines=2, jobs=2) as host:
            host.attach("ppi", ppi_graph)
            host.attach("wiki", wiki_graph.freeze())
            a = host.search("ppi", d=3, s=2, k=2)
            b = host.search("wiki", d=2, s=2, k=4)

    Batches go through :class:`repro.aio.AsyncDCCHost`, which serves
    through a host like this one.
    """

    def __init__(self, max_engines=DEFAULT_MAX_ENGINES,
                 memory_budget_bytes=None, jobs=0,
                 cache_max_entries=DEFAULT_CACHE_MAX_ENTRIES):
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
        check_jobs(jobs)
        self.max_engines = max_engines
        self.memory_budget_bytes = memory_budget_bytes
        self._jobs = jobs
        self._cache_max_entries = cache_max_entries
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

    def attach(self, name, graph, jobs=None):
        """Register ``graph`` under ``name``; no session is admitted yet.

        ``jobs`` left as ``None`` inherits the host-wide default.
        Names are unique — re-attaching a live name raises (detach
        first, which also closes any resident session).
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
        # Validate the graph and override now, not at admission: a
        # poison registration discovered mid-eviction would already have
        # closed the LRU victim's warm pool for nothing.
        check_graph(graph)
        if jobs is not None:
            check_jobs(jobs)
        self._registry[name] = _Registration(
            graph, self._jobs if jobs is None else jobs)
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
            jobs=registration.jobs,
            cache_max_entries=self._cache_max_entries,
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
        """Registry, admission and per-session status for monitoring.

        ``engines`` maps each resident session's name to its engine's
        own :meth:`DCCEngine.info`, unchanged.
        """
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
            "engines": {name: engine.info()
                        for name, engine in self._resident.items()},
            "closed": self._closed,
        }
