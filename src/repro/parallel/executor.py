"""Worker-pool lifecycle, split from per-search task submission.

:class:`WorkerPool` is the execution primitive of the parallel
subsystem: it owns a :class:`~concurrent.futures.ProcessPoolExecutor`
whose initializer ships the serialized graph **once per worker process,
for the pool's whole lifetime**.  Each search afterwards crosses the
process boundary as a tiny :class:`~repro.parallel.plan.Query` spec
riding along its shard tasks — a few dozen bytes of pickle, not a graph
or context copy — and workers re-derive (and cache) the search context
locally.  A one-shot ``search_dccs(..., jobs=N)`` wraps a short-lived
pool around a single query; :class:`repro.engine.DCCEngine` keeps one
warm across many.

Completion order is explicitly irrelevant: results carry their shard
index and are re-sorted before the orchestrator merges them, which is
what makes ``jobs=4`` bitwise identical to ``jobs=1``.
"""

import os
import weakref
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.graph.backend import require_frozen
from repro.parallel.serialize import delta_payload, graph_payload
from repro.parallel.worker import (
    QueryRunnerCache,
    init_persistent_worker,
    ping_worker,
    run_query_shard,
)
from repro.utils.errors import ParameterError, WorkerCrashError

# A hard ceiling on pool size: beyond this, per-process interpreter and
# graph-deserialization overhead dominates any conceivable win.
MAX_WORKERS = 64

# How many delta patches may pile up between the spawn payload and the
# current graph before the pool respawns from a fresh payload instead.
# The chain rides along every task (a ProcessPoolExecutor cannot address
# individual workers), so its pickled size — not correctness — is what
# the cap bounds.
MAX_DELTA_CHAIN = 8

_SPAWN_ERRORS = (OSError, PermissionError, BrokenProcessPool)

# Every constructed WorkerPool, held weakly, for process accounting: a
# multi-engine host (or a leak-hunting test) can ask how many pools
# currently hold live worker processes without keeping any alive.
_LIVE_POOLS = weakref.WeakSet()


def live_pool_count():
    """How many :class:`WorkerPool` instances have spawned processes.

    The leak-detection counter behind the host's eviction contract: a
    closed or evicted pool must no longer appear here.
    """
    return sum(1 for pool in _LIVE_POOLS if pool.spawned)


def _shutdown_executor(executor):
    """Finalizer body: tear down a pool's worker processes.

    Module-level (not a bound method) so the ``weakref.finalize``
    registration cannot keep its :class:`WorkerPool` alive.  Tolerates
    executor doubles without a ``shutdown`` (tests stub the pool class
    to simulate spawn failure).
    """
    shutdown = getattr(executor, "shutdown", None)
    if shutdown is not None:
        shutdown(wait=False, cancel_futures=True)


def usable_cpus():
    """How many CPUs this process may run on (at least 1).

    The size of the process's CPU affinity set where the platform
    exposes one, so a process confined by ``taskset`` or a cpuset counts
    only the CPUs it can be scheduled on; ``os.cpu_count()`` elsewhere.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def check_jobs(jobs):
    """Validate a ``jobs=`` argument, returning it unchanged.

    ``None`` selects the sequential code path, ``0`` means "one worker
    per CPU this process may run on" (:func:`usable_cpus`), any
    positive integer is an explicit worker count.
    """
    if jobs is None:
        return None
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 0:
        raise ParameterError(
            "jobs must be None, 0 (auto) or a positive integer, "
            "got {!r}".format(jobs)
        )
    return jobs


def effective_jobs(jobs=0):
    """The concrete worker count a ``jobs`` request resolves to.

    ``0`` (and ``None``) resolve to :func:`usable_cpus`, so a process
    confined to one CPU resolves to one worker and runs every query
    inline, with no worker processes; explicit counts pass through,
    capped at :data:`MAX_WORKERS`.  The resolved count never affects
    search output — only how many processes serve the shard queue.
    """
    if not jobs:
        jobs = usable_cpus()
    return max(1, min(jobs, MAX_WORKERS))


class _InlineHandle:
    """A submitted query whose shards will run on the orchestrator."""

    def __init__(self, pool, query, tasks, plan):
        self._pool = pool
        self._query = query
        self._tasks = tasks
        self._plan = plan

    def waitables(self):
        """No futures to wait on: the work happens inside collect()."""
        return ()

    def collect(self):
        return self._pool._run_inline(self._query, self._tasks, self._plan)


class _PoolHandle:
    """A submitted query whose shard futures are in flight."""

    def __init__(self, pool, query, tasks, plan, futures):
        self._pool = pool
        self._query = query
        self._tasks = tasks
        self._plan = plan
        self._futures = futures

    def waitables(self):
        """The in-flight shard futures, for callers that await completion.

        An async front-end awaits these (``asyncio.wrap_future``) before
        calling :meth:`collect`, so collection never blocks a thread on
        worker execution — only on the final sort/merge.
        """
        return tuple(self._futures)

    def collect(self):
        results = []
        try:
            # A worker raising an ordinary exception is *not* caught
            # here — it propagates from future.result() as itself.
            for future in self._futures:
                results.append(future.result())
        except CancelledError as error:
            # Futures are only ever cancelled by a pool reset — another
            # in-flight handle of the same pool observed a crash first.
            self._pool._crash(error)
        except _SPAWN_ERRORS as error:
            if results or self._pool._ever_ran:
                # The pool worked and then died mid-run (a worker was
                # OOM-killed, segfaulted, ...).  That is a real failure
                # to surface, not an environment that cannot fork —
                # silently rerunning everything inline would only mask
                # it.  _crash resets the pool (the next query respawns)
                # and raises the typed error.
                self._pool._crash(error)
            self._pool._mark_broken()
            return self._pool._run_inline(self._query, self._tasks,
                                          self._plan)
        self._pool._ever_ran = True
        results.sort(key=lambda item: item[0])
        return results


class WorkerPool:
    """A persistent pool whose workers hold one deserialized graph.

    Parameters
    ----------
    graph:
        The frozen graph; serialized lazily, at first spawn.
    jobs:
        Worker-count request with ``search_dccs`` semantics (``0`` =
        one per CPU the process may run on, see :func:`effective_jobs`);
        ``None`` is accepted as an alias for ``1``.

    The pool spawns lazily — constructing one is free, the process-fork
    and graph-shipping cost lands on the first multi-task query (or on
    an explicit :meth:`warm`).  When one effective worker suffices, or
    worker processes cannot be spawned at all (restricted sandboxes),
    every query runs inline on the orchestrator through the same
    :class:`~repro.parallel.worker.QueryRunnerCache` machinery — same
    results, one core.

    Use as a context manager, or call :meth:`close`, so worker processes
    shut down deterministically.  Callers are nonetheless not *relied*
    on: every spawned executor is registered with a ``weakref.finalize``
    safety net that tears the processes down when the pool is garbage
    collected — or, failing that, at interpreter exit — so an abandoned
    pool (an engine dropped without ``close()``) cannot leak worker
    processes.
    """

    def __init__(self, graph, jobs=0):
        jobs = check_jobs(1 if jobs is None else jobs)
        self.graph = require_frozen(graph)
        self.workers = effective_jobs(jobs)
        self._payload = None
        self._pool = None
        self._finalizer = None
        self._broken = False
        self._closed = False
        self._ever_ran = False
        self._inline = QueryRunnerCache(graph)
        # Streaming state: the epoch counts applied deltas, the chain
        # holds the (epoch, delta payload) suffix a spawned worker may
        # still need to catch up on, and _payload_epoch stamps which
        # epoch the spawn payload captured.
        self._epoch = 0
        self._payload_epoch = 0
        self._chain = []
        self.queries_served = 0
        self.tasks_executed = 0
        self.crashes = 0
        self.deltas_shipped = 0
        self.delta_respawns = 0
        _LIVE_POOLS.add(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def spawned(self):
        """Whether worker processes are currently live."""
        return self._pool is not None

    @property
    def closed(self):
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def inline_fallback(self):
        """Whether spawning failed and queries degrade to inline runs."""
        return self._broken

    def worker_pids(self):
        """PIDs of the live worker processes (empty when not spawned).

        Monitoring surface, and the hook fault-injection tests use to
        kill a worker mid-search.
        """
        if self._pool is None:
            return ()
        processes = getattr(self._pool, "_processes", None)
        return tuple(processes) if processes else ()

    def warm(self):
        """Spawn and touch every worker now, returning success.

        Callers that time individual queries (sweeps, benchmarks) warm
        the pool first so process-spawn cost is a session cost, not part
        of whichever query happens to run first.  No-op when the pool
        runs inline anyway.
        """
        if self.workers <= 1 or self._broken or self._closed:
            return False
        pool = self._ensure_pool()
        if pool is None:
            return False
        try:
            futures = [pool.submit(ping_worker)
                       for _ in range(self.workers)]
            for future in futures:
                future.result()
        except _SPAWN_ERRORS:
            self._mark_broken()
            return False
        self._ever_ran = True
        return True

    def close(self):
        """Shut the worker processes down; inline execution still works."""
        self._closed = True
        self._shutdown_pool()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _ensure_pool(self):
        if self._pool is None and not self._broken and not self._closed:
            if self._payload is None:
                self._payload = graph_payload(self.graph)
                self._payload_epoch = self._epoch
                self._chain = []
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=init_persistent_worker,
                    initargs=(self._payload, self._payload_epoch),
                )
            except _SPAWN_ERRORS:
                self._mark_broken()
            else:
                # The safety net: keyed on *this pool's* lifetime, so a
                # pool abandoned without close() still shuts its worker
                # processes down at garbage collection, and finalize's
                # built-in atexit hook covers interpreter exit.
                self._finalizer = weakref.finalize(
                    self, _shutdown_executor, self._pool
                )
        return self._pool

    def _mark_broken(self):
        self._broken = True
        self._shutdown_pool()

    def _crash(self, cause):
        """Reset after a mid-run worker death and surface the typed error.

        Unlike :meth:`_mark_broken` (an environment that cannot spawn at
        all, degrading permanently to inline runs), a crash resets the
        executor but leaves the pool *armed*: the next query respawns
        fresh worker processes from the same graph payload.  Every other
        in-flight handle of this pool sees its futures cancelled and
        funnels back here, so one crash yields one consistent error type
        across the whole pipeline.
        """
        self.crashes += 1
        self._shutdown_pool()
        raise WorkerCrashError(cause)

    def _shutdown_pool(self):
        finalizer, self._finalizer = self._finalizer, None
        pool, self._pool = self._pool, None
        if finalizer is not None:
            # Calling the finalizer runs _shutdown_executor exactly once
            # and unregisters the GC/atexit hook in the same stroke.
            finalizer()
            return
        shutdown = getattr(pool, "shutdown", None)
        if shutdown is not None:
            shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # streaming deltas
    # ------------------------------------------------------------------

    def apply_delta(self, new_graph, delta):
        """Retarget the pool at a post-delta graph without respawning.

        The inline runner cache rebinds immediately; live worker
        processes catch up lazily — the patch joins the delta chain that
        rides along every task, and each worker applies the suffix it
        has not seen yet (:func:`~repro.parallel.worker._sync_to_epoch`)
        on its next task.  Past :data:`MAX_DELTA_CHAIN` pending patches
        the pool shuts its processes down instead and the next query
        respawns them from a fresh payload of the new graph — the same
        cost profile as a classic full rebind, taken once per ~chain-cap
        deltas instead of per delta.
        """
        old_graph = self.graph
        self.graph = new_graph
        self._inline = QueryRunnerCache(new_graph)
        self._epoch += 1
        if self._pool is None:
            # No live processes to patch: forget any staged payload so
            # the next spawn serializes the new graph directly.
            self._payload = None
            self._chain = []
            return
        if len(self._chain) >= MAX_DELTA_CHAIN:
            self._shutdown_pool()
            self._payload = None
            self._chain = []
            self.delta_respawns += 1
            return
        self._chain.append((self._epoch, delta_payload(old_graph,
                                                       new_graph, delta)))
        self.deltas_shipped += 1

    # ------------------------------------------------------------------
    # per-search submission
    # ------------------------------------------------------------------

    def submit_query(self, query, tasks, plan=None):
        """Submit one query's shard tasks; returns a handle for collect.

        Submission does not block on execution, which is what lets a
        batch pipeline its queries: plan and submit query ``i+1`` while
        the workers still chew on query ``i``'s shards.
        """
        if (self.workers <= 1 or len(tasks) <= 1 or self._broken
                or self._closed):
            return _InlineHandle(self, query, tasks, plan)
        pool = self._ensure_pool()
        if pool is None:
            return _InlineHandle(self, query, tasks, plan)
        try:
            # Worker processes are spawned lazily (at submit time on
            # CPython), so a sandbox that denies fork()/clone() surfaces
            # as OSError or a broken pool here, not in the constructor.
            epoch = self._epoch
            chain = tuple(self._chain)
            futures = [pool.submit(run_query_shard,
                                   (query, task, epoch, chain))
                       for task in tasks]
        except _SPAWN_ERRORS as error:
            if self._ever_ran:
                # This pool has executed work before, so the processes
                # died under it — a crash, not a spawn-incapable host.
                self._crash(error)
            self._mark_broken()
            return _InlineHandle(self, query, tasks, plan)
        return _PoolHandle(self, query, tasks, plan, futures)

    def collect(self, handle):
        """Block for a submitted query's results, in shard order."""
        results = handle.collect()
        self.queries_served += 1
        self.tasks_executed += len(results)
        return results

    def map_query(self, query, tasks, plan=None):
        """Submit-and-collect: execute ``tasks`` and return shard results."""
        return self.collect(self.submit_query(query, tasks, plan))

    def _run_inline(self, query, tasks, plan):
        runner = self._inline.runner(query, plan)
        return [runner.run(task) for task in tasks]
