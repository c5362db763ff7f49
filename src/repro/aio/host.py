"""The async serving front-end over the synchronous multi-graph host.

:class:`AsyncDCCHost` is the layer the ROADMAP's serving track put
after PR 4's :class:`~repro.host.registry.DCCHost`: many concurrent
asyncio clients issuing d-CC searches over many named graphs, served by
one host process without a thread parked per request.

Design
------
* **Per-graph request queues.**  Every attached graph with traffic gets
  a bounded :class:`asyncio.Queue` (``max_pending`` slots) and one
  *dispatcher* task.  The dispatcher drains whatever requests have
  accumulated into a batch, leases the graph's engine, and serves the
  batch pipelined — submit all, await all, collect in order — so one
  graph's queue depth turns into engine-level pipelining, not into
  per-request pool spawns.
* **Backpressure.**  A full queue rejects new requests with
  :class:`~repro.utils.errors.QueueFullError` instead of buffering
  without bound; callers shed load or retry.  Coalesced duplicates (see
  below) never occupy a queue slot.
* **Request coalescing.**  Requests whose ``(graph, method, d, s, k,
  options)`` spec is identical to one already in flight attach to it
  rather than re-executing: when the primary completes, every attached
  waiter receives a deep copy of its result.  The engine layer's
  warm==cold counter-replay contract is what makes this invisible —
  a coalesced answer is bitwise identical (sets, labels, counters) to
  re-running the spec, so coalescing trades only duplicate work, never
  results.
* **Cross-time result cache.**  Coalescing only dedupes *concurrent*
  duplicates; a :class:`~repro.aio.result_cache.ResultCache` above the
  coalescer dedupes across time — finished results are memoised under
  ``(graph, mutation_version, spec)`` with LRU + TTL bounds, and a
  repeat served minutes later costs a lookup and a deep copy instead
  of a search.  Cached hits replay the stored stats delta (a caller's
  ``stats=`` accumulator is charged exactly as a live search would
  charge it), and the ``mutation_version`` key plus a per-graph
  watermark purge make mutation invalidation automatic — a stale
  answer is unreachable the moment the graph ticks.
* **Streaming updates.**  :meth:`update` applies a batched edge delta
  to an attached graph through the same per-graph FIFO the searches
  ride, so clients observe a single total order: searches accepted
  before the update answer against the old graph, searches after it
  against the new one.  The mutation is one atomic
  ``apply_delta`` batch (one ``mutation_version`` tick), the result
  cache's watermark advances in the same step, and the graph's engine
  rebinds lazily on its next query — patching its CSR and keeping
  untouched per-layer artifacts when the recorded delta allows.
* **The one batch path.**  :meth:`search_many` (and :meth:`run_batch`,
  its bridge from synchronous code) is the only batch call in the
  stack: it reads every spec with
  :func:`~repro.host.spec.parse_request` before enqueuing any, and
  ``repro batch`` and ``repro host`` serve their files through it.
* **Per-request metrics.**  Queue depths, coalesce/cache hit counters
  and service-latency percentiles (accept to resolve, recorded through
  an injectable clock into a bounded window) are exposed via
  :meth:`info`, the ``stats`` protocol message of both serving
  transports, and ``repro info``.
* **No thread per request.**  Serving leans on the submission/collection
  split threaded through the stack (``DCCEngine.submit`` →
  ``WorkerPool.submit_query``): the dispatcher submits on a pool
  thread, *awaits* the in-flight shard futures on the event loop
  (``asyncio.wrap_future``), and only then runs the cheap collect/merge
  on a pool thread.  Worker-pool execution (greedy's shards) never
  holds a thread; in-process execution (bottom-up and top-down, which
  run inside ``submit``, and greedy on ``jobs=1`` engines) holds one
  thread per *active engine* for the duration of the compute, which
  keeps the event loop live either way.
* **Eviction safety.**  A dispatcher holds a :meth:`DCCHost.lease` on
  its graph while serving, so admission-control eviction (another graph
  being admitted under ``max_engines`` pressure) can never close a pool
  with shard futures in flight.  The number of concurrently *serving*
  graphs is itself capped at ``max_engines``; dispatchers beyond it
  wait their turn, which guarantees an evictable (idle, unpinned)
  victim always exists.
* **Graceful drain.**  :meth:`aclose` stops accepting work, lets every
  dispatcher finish the requests already queued, then closes the
  underlying host — every worker pool shuts down
  (``live_pool_count()`` returns to its baseline).

Determinism contract, carried from PRs 2–4 and property-tested in
``tests/test_aio.py``: any interleaving of async clients yields, for
every request, results and counters bitwise identical to the same spec
run sequentially on a plain :class:`DCCHost` — across evictions,
coalesced duplicates and dispatcher batching.

One event loop at a time: the host binds to the loop of its first
request and rebinds automatically once that loop is closed (which is
what lets :meth:`run_batch` bridge from synchronous code, one
``asyncio.run`` at a time).  Concurrent use from two live loops raises.
"""

import asyncio
import copy
import threading
import time
from contextlib import asynccontextmanager
from functools import partial

from repro.aio.metrics import LatencyRecorder
from repro.aio.result_cache import (
    DEFAULT_RESULT_CACHE_ENTRIES,
    ResultCache,
)
from repro.core.api import check_stats
from repro.host import DCCHost
from repro.host.spec import UpdateRequest, parse_requests
from repro.utils.errors import (
    FrozenGraphError,
    GraphError,
    HostClosedError,
    ParameterError,
    QueueFullError,
    UnknownGraphError,
)

# Default bound on queued (not yet dispatched) requests per graph.
DEFAULT_MAX_PENDING = 1024

# How many queued requests one dispatcher turn drains into a pipelined
# batch.  Bounds the latency of a drain/stop request landing behind a
# deep queue; engine pipelining gains flatten out well before this.
MAX_BATCH = 32

# Queue sentinel telling a dispatcher to exit after the queue drains.
_STOP = object()


class _Request:
    """One enqueued search plus everything needed to answer it."""

    __slots__ = ("spec", "key", "future", "waiters")

    def __init__(self, spec, key, future):
        self.spec = spec
        self.key = key
        self.future = future
        self.waiters = []


class _GraphUpdate:
    """One enqueued mutation batch riding a graph's request queue.

    Updates share the queue with searches so one graph's traffic is a
    single FIFO: every search accepted before the update sees the old
    graph, every one accepted after it sees the new one — the ordering
    clients observe is exactly the order the queue accepted.
    """

    __slots__ = ("add", "remove", "future")

    def __init__(self, add, remove, future):
        self.add = add
        self.remove = remove
        self.future = future


def _coalesce_key(name, d, s, k, method, options):
    """The in-flight identity of a spec, or ``None`` if uncoalescable.

    Unhashable option values (a caller-supplied ``stats`` accumulator,
    say) opt the request out of coalescing rather than failing it.
    """
    try:
        key = (name, method, d, s, k, tuple(sorted(options.items())))
        hash(key)
    except TypeError:
        return None
    return key


class AsyncDCCHost:
    """Async façade over a :class:`DCCHost`; see the module docstring.

    Parameters
    ----------
    host:
        An existing :class:`DCCHost` to serve through, or ``None`` to
        construct one from ``host_options`` (``max_engines``, ``jobs``,
        ``memory_budget_bytes``, ...).  Either way :meth:`aclose`
        closes it.
    max_pending:
        Per-graph bound on queued requests; a full queue raises
        :class:`~repro.utils.errors.QueueFullError`.
    coalesce:
        Switch in-flight duplicate coalescing off (``True`` by
        default); results are identical either way.
    cache_results:
        Switch the cross-time result cache off (``False``); results are
        identical either way, warm repeats just search live again.
    result_cache:
        An already-constructed :class:`ResultCache` to serve from —
        the injection point for deterministic TTL/eviction tests
        (bring your own clock).  Mutually exclusive with
        ``cache_results=False``; when omitted, one is built from
        ``result_cache_entries`` / ``result_cache_ttl``.
    result_cache_entries / result_cache_ttl:
        LRU entry cap (default 4096) and optional TTL seconds for the
        built-in result cache.
    clock:
        Monotonic time source for the latency metrics, injectable so
        the metrics tests can assert exact percentiles.

    Use as an async context manager (or call :meth:`aclose`) so the
    drain-and-shutdown runs::

        async with AsyncDCCHost(max_engines=2, jobs=2) as host:
            host.attach("ppi", ppi_graph)
            results = await asyncio.gather(
                host.search("ppi", d=3, s=2, k=2),
                host.search("ppi", d=3, s=2, k=2),   # coalesces
            )
    """

    def __init__(self, host=None, max_pending=DEFAULT_MAX_PENDING,
                 coalesce=True, cache_results=True, result_cache=None,
                 result_cache_entries=DEFAULT_RESULT_CACHE_ENTRIES,
                 result_cache_ttl=None, clock=time.monotonic,
                 **host_options):
        if host is not None and host_options:
            raise ParameterError(
                "pass either an existing host or host options to build "
                "one, not both (got host= plus {})".format(
                    sorted(host_options)
                )
            )
        if isinstance(max_pending, bool) or not isinstance(max_pending, int) \
                or max_pending < 1:
            raise ParameterError(
                "max_pending must be a positive integer, got {!r}".format(
                    max_pending
                )
            )
        if result_cache is not None and not cache_results:
            raise ParameterError(
                "cache_results=False contradicts passing a result_cache; "
                "drop one of the two"
            )
        if result_cache is not None:
            self._results = result_cache
        elif cache_results:
            self._results = ResultCache(max_entries=result_cache_entries,
                                        ttl=result_cache_ttl)
        else:
            self._results = None
        self._clock = clock
        self.latency = LatencyRecorder()
        self._host = host if host is not None else DCCHost(**host_options)
        # Admission (a possible O(n + m) freeze plus pool teardown of
        # the eviction victim) runs on executor threads so the event
        # loop stays responsive; this lock is what makes the host's
        # single-threaded registry safe against loop-side calls
        # (attach/detach/info) landing mid-admission.
        self._host_lock = threading.RLock()
        self.max_pending = max_pending
        self._coalesce = coalesce
        self._closed = False
        self._loop = None
        self._queues = {}
        self._dispatchers = {}
        self._inflight = {}
        self._busy = set()
        self._turnstile = None  # asyncio.Condition, created per loop
        # Per-graph count of updates accepted but not yet applied.
        # While non-zero, that graph's searches bypass the result cache
        # and the coalescer: both key on mutation_version / in-flight
        # specs of the *old* graph, and a search accepted behind a
        # queued update must answer against the new one.
        self._pending_updates = {}
        self.requests_accepted = 0
        self.requests_served = 0
        self.requests_coalesced = 0
        self.requests_cached = 0
        self.requests_rejected = 0
        self.batches_dispatched = 0
        self.updates_applied = 0
        self.update_edges_applied = 0
        self.update_latency = LatencyRecorder()

    # ------------------------------------------------------------------
    # registry surface (synchronous, delegated)
    # ------------------------------------------------------------------

    @property
    def host(self):
        """The synchronous :class:`DCCHost` substrate being served."""
        return self._host

    def attach(self, name, graph, jobs=None):
        """Register a graph on the underlying host; returns ``self``."""
        with self._host_lock:
            self._host.attach(name, graph, jobs=jobs)
        if self._results is not None:
            # A recycled name must never serve the previous graph's
            # answers — mutation_version alone cannot tell two distinct
            # graphs apart.
            self._results.invalidate(name)
        return self

    def detach(self, name):
        """Drop a registration (refused while its engine is serving)."""
        with self._host_lock:
            self._host.detach(name)
        if self._results is not None:
            self._results.invalidate(name)

    def is_attached(self, name):
        return self._host.is_attached(name)

    def graph(self, name):
        return self._host.graph(name)

    def names(self):
        return self._host.names()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    async def search(self, name, d, s, k, method="auto", **options):
        """One search against the named graph; awaits its result.

        Exactly :meth:`DCCHost.search` semantics — same option surface,
        same bitwise-determinism contract — behind the queue, the
        coalescer and the dispatcher.  Raises
        :class:`~repro.utils.errors.QueueFullError` under backpressure
        and whatever the engine raises (``WorkerCrashError``,
        ``StaleResultError``, parameter errors) otherwise.
        """
        self._ensure_serving(name)
        check_stats(options.get("stats"))
        loop = asyncio.get_running_loop()
        started = self._clock()
        # The result cache sits *above* the coalescer: a finished
        # duplicate — even one served minutes ago — never touches a
        # queue, a dispatcher or an engine.
        pending_update = bool(self._pending_updates.get(name))
        cache_key = None
        if self._results is not None and not pending_update:
            cache_key = ResultCache.key_for(
                name, self._host.graph(name).mutation_version,
                d, s, k, method, options,
            )
            if cache_key is not None:
                cached = self._results.fetch(cache_key,
                                             options.get("stats"))
                if cached is not None:
                    self.requests_cached += 1
                    self.latency.record(self._clock() - started)
                    return cached
        key = _coalesce_key(name, d, s, k, method, options) \
            if self._coalesce and not pending_update else None
        if key is not None:
            primary = self._inflight.get(key)
            if primary is not None:
                waiter = loop.create_future()
                primary.waiters.append(waiter)
                self.requests_coalesced += 1
                result = await waiter
                self.latency.record(self._clock() - started)
                return result
        request = _Request((d, s, k, method, options), key,
                           loop.create_future())
        queue = self._queue_for(name)
        try:
            queue.put_nowait(request)
        except asyncio.QueueFull:
            self.requests_rejected += 1
            raise QueueFullError(name, self.max_pending) from None
        if key is not None:
            self._inflight[key] = request
        self.requests_accepted += 1
        result = await request.future
        self._maybe_cache(name, cache_key, options, result)
        self.latency.record(self._clock() - started)
        return result

    def _maybe_cache(self, name, cache_key, options, result):
        """Populate the result cache from a finished live search.

        Three eligibility gates: the spec was cacheable at all, no user
        ``stats=`` accumulator rode the request (its result's stats
        object is the caller's own, not a clean replayable delta), and
        the graph is still on the version the key was cut for — a
        mutation racing the search must not resurrect the old answer.
        """
        if cache_key is None or "stats" in options:
            return
        try:
            current = self._host.graph(name).mutation_version
        except GraphError:
            return  # detached while the search was in flight
        if current != cache_key[1]:
            return
        self._results.put(cache_key, result)

    async def update(self, name, add=(), remove=()):
        """Apply one batched mutation to the named graph; awaits a receipt.

        ``add`` and ``remove`` are iterables of ``(layer, u, v)`` edges,
        applied through the graph's :meth:`apply_delta` — one atomic
        batch, one ``mutation_version`` tick, validated up front so a
        bad edge rejects the whole batch without touching the graph.

        The update rides the same per-graph FIFO as searches: requests
        accepted before it are answered against the pre-update graph,
        requests accepted after it against the post-update graph, under
        any client interleaving.  The receipt reports the *net* delta
        (an add cancelling a queued remove applies as nothing) and the
        new ``mutation_version``; the cross-time result cache's
        watermark for the graph advances in the same step, so stale
        answers are unreachable the moment the update resolves.
        """
        self._ensure_serving(name)
        graph = self._host.graph(name)
        if getattr(graph, "apply_delta", None) is None:
            raise FrozenGraphError("apply_delta")
        loop = asyncio.get_running_loop()
        started = self._clock()
        update = _GraphUpdate(tuple(add), tuple(remove),
                              loop.create_future())
        queue = self._queue_for(name)
        try:
            queue.put_nowait(update)
        except asyncio.QueueFull:
            self.requests_rejected += 1
            raise QueueFullError(name, self.max_pending) from None
        self._pending_updates[name] = self._pending_updates.get(name, 0) + 1
        self.requests_accepted += 1
        receipt = await update.future
        self.update_latency.record(self._clock() - started)
        return receipt

    async def search_many(self, specs):
        """Serve a batch of ``{"graph": ..., "d": ..., ...}`` specs.

        The one batch path (``repro batch`` and ``repro host`` run their
        files through it, via :meth:`run_batch`): every spec is
        submitted concurrently (so duplicates coalesce and per-graph
        groups pipeline) and results come back in input order, each
        bitwise identical to the corresponding :meth:`search` call.
        Every spec is read by :func:`~repro.host.spec.parse_request` and
        its graph checked before any of them is enqueued, so a malformed
        one raises :class:`~repro.utils.errors.ProtocolError` and an
        unknown graph :class:`~repro.utils.errors.UnknownGraphError`
        with nothing served.

        A spec may also be an ``{"op": "update", "graph": ..., "add":
        ..., "remove": ...}`` mutation (the batch-spec file shape); it
        is submitted through :meth:`update` at its position, and since
        submission order is enqueue order, every search listed after it
        answers against the mutated graph.  Its slot in the returned
        list holds the update receipt dict.
        """
        requests = parse_requests(specs)
        for request in requests:
            self._ensure_serving(request.graph)
        # gather() starts the coroutines in order and both search() and
        # update() enqueue before their first await, so the per-graph
        # FIFO sees the specs in input order — an update is a barrier at
        # exactly its list position.
        return await asyncio.gather(*(
            self.update(request.graph, add=request.add,
                        remove=request.remove)
            if isinstance(request, UpdateRequest)
            else self.search(request.graph, request.d, request.s,
                             request.k, method=request.method,
                             **request.options)
            for request in requests
        ))

    def run_batch(self, specs):
        """Serve a batch from synchronous code; blocks for the results.

        The bridge ``repro batch`` and ``repro host`` use: one
        ``asyncio.run`` per call, with the dispatchers quiesced before
        the loop closes so the host can be driven again (from the next
        call, or async).  Must not be called while an event loop is
        already running.
        """
        async def _serve_and_quiesce():
            try:
                return await self.search_many(specs)
            finally:
                await self._quiesce()

        return asyncio.run(_serve_and_quiesce())

    # ------------------------------------------------------------------
    # dispatcher machinery
    # ------------------------------------------------------------------

    def _ensure_serving(self, name):
        if self._closed:
            raise HostClosedError()
        if not self._host.is_attached(name):
            raise UnknownGraphError(name, dict.fromkeys(self._host.names()))
        self._bind_loop()

    def _bind_loop(self):
        """Adopt the running loop, or insist on the one already bound.

        Rebinding is only legal when the previous loop is gone (closed):
        queues, dispatcher tasks and in-flight futures all belong to a
        loop, and none of them can have survived its close.
        """
        loop = asyncio.get_running_loop()
        if self._loop is loop:
            return
        if self._loop is not None and not self._loop.is_closed():
            raise ParameterError(
                "this AsyncDCCHost is already serving on another live "
                "event loop; one loop at a time"
            )
        self._loop = loop
        self._queues = {}
        self._dispatchers = {}
        self._inflight = {}
        self._busy = set()
        self._pending_updates = {}
        self._turnstile = asyncio.Condition()

    def _queue_for(self, name):
        queue = self._queues.get(name)
        if queue is None:
            queue = asyncio.Queue(maxsize=self.max_pending)
            self._queues[name] = queue
            self._dispatchers[name] = self._loop.create_task(
                self._dispatch(name), name="repro-dispatch-{}".format(name)
            )
        return queue

    async def _dispatch(self, name):
        """One graph's dispatcher: drain, lease, serve, repeat.

        Updates ride the same queue as searches, so an update is a
        batch *barrier*: draining stops at it, the drained searches are
        served against the pre-update graph, and the update applies on
        the next turn before anything accepted after it is served.
        """
        queue = self._queues[name]
        carry = None
        while True:
            if carry is not None:
                request, carry = carry, None
            else:
                request = await queue.get()
            if request is _STOP:
                return
            if isinstance(request, _GraphUpdate):
                await self._apply_update(name, request)
                continue
            batch = [request]
            while len(batch) < MAX_BATCH and not queue.empty():
                head = queue.get_nowait()
                if head is _STOP:
                    # Serve what was drained first, then exit: a slot is
                    # free (we just took the sentinel out), so this
                    # re-enqueue cannot fail.
                    queue.put_nowait(head)
                    break
                if isinstance(head, _GraphUpdate):
                    # FIFO barrier: finish the drained searches first,
                    # apply the update on the next turn.
                    carry = head
                    break
                batch.append(head)
            try:
                async with self._engine_turn(name):
                    await self._serve_batch(name, batch)
            except Exception as error:  # pragma: no cover - safety net
                for pending in batch:
                    self._resolve_error(pending, error)

    async def _apply_update(self, name, update):
        """Run one mutation batch on a pool thread; resolve its future.

        No :meth:`_engine_turn` and no lease: this dispatcher is the
        only path that serves this graph, and it is parked right here —
        no search against the graph can be in flight.  The engine
        notices the version tick lazily on its next query and rebinds
        (patching when the delta allows — see ``engine/session.py``).
        """
        loop = asyncio.get_running_loop()
        try:
            receipt = await loop.run_in_executor(
                None,
                partial(self._locked_update, name, update.add,
                        update.remove),
            )
        except Exception as error:
            if not update.future.done():
                update.future.set_exception(error)
        else:
            if not update.future.done():
                update.future.set_result(receipt)
        finally:
            left = self._pending_updates.get(name, 0) - 1
            if left > 0:
                self._pending_updates[name] = left
            else:
                self._pending_updates.pop(name, None)
        self.requests_served += 1

    def _locked_update(self, name, add, remove):
        """Mutate under the host lock; runs on a pool thread.

        The lock guards the registry against attach/detach/info racing
        the mutation; the result-cache watermark advances in the same
        critical section so no stale answer is served after the new
        version exists.
        """
        with self._host_lock:
            graph = self._host.graph(name)
            delta = graph.apply_delta(add=add, remove=remove)
            version = graph.mutation_version
            if self._results is not None:
                self._results.note_mutation(name, version)
        self.updates_applied += 1
        edges = 0 if delta is None else delta.edge_count
        self.update_edges_applied += edges
        return {
            "applied": edges,
            "added": 0 if delta is None else len(delta.edges_added),
            "removed": 0 if delta is None else len(delta.edges_removed),
            "mutation_version": version,
        }

    @asynccontextmanager
    async def _engine_turn(self, name):
        """Bound concurrently-serving graphs by the host's engine cap.

        At most ``max_engines`` graphs serve at once, so every leased
        (pinned) session fits inside the resident cap and admission
        always finds an unpinned victim — the async layer's half of the
        eviction-safety argument.
        """
        turnstile = self._turnstile
        async with turnstile:
            await turnstile.wait_for(
                lambda: len(self._busy) < self._host.max_engines
            )
            self._busy.add(name)
        try:
            yield
        finally:
            async with turnstile:
                self._busy.discard(name)
                turnstile.notify_all()

    def _lease(self, name):
        """Pin + admit on a pool thread; admission can run a freeze."""
        with self._host_lock:
            self._host.pin(name)
            try:
                return self._host.engine(name)
            except BaseException:
                self._host.unpin(name)
                raise

    def _release(self, name):
        """Unpin on a pool thread; the shrink-back may close a pool."""
        with self._host_lock:
            self._host.unpin(name)

    async def _serve_batch(self, name, batch):
        """Lease the engine and run one drained batch, pipelined.

        The lease is released in the pool call that collects the batch's
        last request, before that request resolves: a client whose
        search has returned may detach the graph at once.
        """
        loop = asyncio.get_running_loop()
        self.batches_dispatched += 1
        engine = await loop.run_in_executor(None, self._lease, name)
        leased = True
        try:
            handles = []
            for request in batch:
                d, s, k, method, options = request.spec
                try:
                    # Start on a pool thread: greedy planning runs real
                    # preprocessing and the tree searches run whole,
                    # and the loop must stay responsive to other
                    # graphs' clients meanwhile.
                    handle = await loop.run_in_executor(
                        None,
                        partial(engine.submit, d, s, k, method=method,
                                **options),
                    )
                except Exception as error:
                    # Resolved in order below, so the last request
                    # resolves after the release even when it failed.
                    handle = error
                handles.append(handle)
            await self._await_shards(handles)
            last = len(batch) - 1
            for position, (request, handle) in enumerate(zip(batch,
                                                             handles)):
                try:
                    if position == last:
                        leased = False
                        result = await loop.run_in_executor(
                            None, self._collect_and_release, name, handle)
                    elif isinstance(handle, Exception):
                        raise handle
                    else:
                        result = await loop.run_in_executor(
                            None, handle.collect)
                except Exception as error:
                    self._resolve_error(request, error)
                else:
                    self._host.searches_served += 1
                    self._resolve(request, result)
        finally:
            if leased:
                await loop.run_in_executor(None, self._release, name)

    def _collect_and_release(self, name, handle):
        """Collect ``handle`` (a submission error re-raises), then release
        the lease: the engine is evictable again."""
        try:
            if isinstance(handle, Exception):
                raise handle
            return handle.collect()
        finally:
            self._release(name)

    @staticmethod
    async def _await_shards(handles):
        """Await every in-flight shard future without consuming errors.

        A submission error in ``handles`` stands for a request with no
        shards.  Failures (a worker exception, a crash cancelling
        siblings) are deliberately *not* raised here —
        ``handle.collect()`` owns error semantics.  Wrapper exceptions
        are touched after the wait so the event loop never logs them as
        unretrieved.
        """
        waitables = [future
                     for handle in handles
                     if not isinstance(handle, Exception)
                     for future in handle.waitables()]
        if not waitables:
            return
        wrapped = [asyncio.wrap_future(future) for future in waitables]
        await asyncio.wait(wrapped)
        for waiter in wrapped:
            if not waiter.cancelled():
                waiter.exception()

    def _resolve(self, request, result):
        """Deliver a result to the primary and every coalesced waiter."""
        if request.key is not None:
            self._inflight.pop(request.key, None)
        if not request.future.done():
            request.future.set_result(result)
        for waiter in request.waiters:
            if not waiter.done():
                # A private deep copy per waiter: coalesced clients must
                # not share mutable result state with each other or the
                # primary.
                waiter.set_result(copy.deepcopy(result))
        self.requests_served += 1 + len(request.waiters)

    def _resolve_error(self, request, error):
        if request.key is not None:
            self._inflight.pop(request.key, None)
        if not request.future.done():
            request.future.set_exception(error)
        for waiter in request.waiters:
            if not waiter.done():
                waiter.set_exception(error)
        self.requests_served += 1 + len(request.waiters)

    # ------------------------------------------------------------------
    # lifecycle / status
    # ------------------------------------------------------------------

    async def _quiesce(self):
        """Stop every dispatcher after its queue drains; keep the host.

        The already-accepted requests are all served — the sentinel
        rides the same queue behind them — so nothing accepted is ever
        dropped.  Serving resumes lazily on the next request.
        """
        dispatchers = list(self._dispatchers.values())
        for queue in self._queues.values():
            await queue.put(_STOP)
        if dispatchers:
            await asyncio.gather(*dispatchers)
        self._queues.clear()
        self._dispatchers.clear()
        self._inflight.clear()

    async def aclose(self):
        """Drain and shut down: serve accepted work, close every pool.

        New requests are refused (:class:`HostClosedError`) as soon as
        this starts; requests already queued are served to completion;
        then the underlying host closes, shutting down every resident
        engine's worker pool.  Idempotent.
        """
        if self._closed:
            return
        # Bind (which may refuse: another live loop owns the host)
        # *before* flipping the closed flag — a failed aclose must leave
        # the host drainable, not wedge it half-closed forever.
        self._bind_loop()
        self._closed = True
        await self._quiesce()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._locked_close)

    def _locked_close(self):
        with self._host_lock:
            self._host.close()

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc):
        await self.aclose()
        return False

    def pending(self):
        """Requests queued (accepted, not yet dispatched), per graph."""
        return {name: queue.qsize()
                for name, queue in self._queues.items() if queue.qsize()}

    def info(self):
        """Serving-layer counters stacked on the host's own status."""
        with self._host_lock:
            host_status = self._host.info()
        return {
            "max_pending": self.max_pending,
            "coalescing": self._coalesce,
            "requests_accepted": self.requests_accepted,
            "requests_served": self.requests_served,
            "requests_coalesced": self.requests_coalesced,
            "requests_cached": self.requests_cached,
            "requests_rejected": self.requests_rejected,
            "batches_dispatched": self.batches_dispatched,
            "updates_applied": self.updates_applied,
            "update_edges_applied": self.update_edges_applied,
            "update_latency": self.update_latency.snapshot(),
            "pending": self.pending(),
            "inflight_keys": len(self._inflight),
            "dispatchers": tuple(self._dispatchers),
            "result_cache": self._results.stats()
            if self._results is not None else None,
            "latency": self.latency.snapshot(),
            "closed": self._closed,
            "host": host_status,
        }

    @property
    def result_cache(self):
        """The cross-time :class:`ResultCache`, or ``None`` if disabled."""
        return self._results
