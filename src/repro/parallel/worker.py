"""Shard execution: the code that runs inside worker processes.

A *shard* is one chunk of a greedy query's candidate family (see
:mod:`repro.parallel.search`; bottom-up and top-down never reach the
pool).  :class:`ShardRunner` executes shards against one graph plus one
immutable search *context* (``d`` and the preprocessed core masks).  The
same class backs both execution modes:

* **inline** (one effective worker, or a single shard) — the pool's
  orchestrator-side :class:`QueryRunnerCache` instantiates runners
  directly on its own graph object;
* **pooled** — :func:`init_persistent_worker` runs once per worker
  process, rebuilds the graph from its serialized payload (see
  :mod:`repro.parallel.serialize`) and keeps it for the life of the
  pool; :func:`run_query_shard` then serves ``(query, task)`` pairs,
  deriving each query's search context locally
  (:func:`repro.parallel.plan.plan_query`) and caching it so a repeated
  query costs the worker nothing but the shard itself.

Determinism is the design invariant: a shard's result depends only on
``(graph, query, shard)`` — never on which worker ran it, how many
workers exist, in what order shards complete, or whether the worker's
context came fresh or from its cache.  Worker-side derivations run with
``stats=None`` so the merged counters cannot drift with the worker
count; the orchestrator charges each derivation to the run's stats
exactly once on its own side.
"""

from collections import OrderedDict

from repro.core.dcc import candidate_for_subset
from repro.core.stats import SearchStats
from repro.parallel.plan import plan_query
from repro.parallel.serialize import apply_delta_payload, payload_graph

# Per-process cap on cached query contexts.  Eight comfortably covers a
# sweep alternating a few parameters; beyond that the oldest context is
# evicted (a repeat then re-derives it, results unchanged).
MAX_CACHED_QUERIES = 8


class ShardRunner:
    """Executes greedy shard tasks against one graph and one context.

    ``graph`` is the frozen graph (pooled workers hand runners one
    rebuilt from the serialized payload); ``context`` is the immutable
    per-query dict :func:`repro.parallel.plan.plan_query` builds.
    """

    def __init__(self, graph, context):
        self.graph = graph
        self.context = context

    def run(self, task):
        """``(shard_index, subsets)`` → ``(shard_index, candidates,
        SearchStats)``: ``(L, C^d_L)`` per subset, each d-CC as its
        ascending ids.

        Byte-for-byte the per-subset work of the sequential
        ``enumerate_candidates`` loop (same Lemma 1 bound from the same
        core masks, same counter increments, the same d-CCs the graph
        keeps), so summed shard stats equal the sequential run's.
        """
        shard_index, subsets = task
        stats = SearchStats()
        d = self.context["d"]
        cores = self.context["cores"]
        candidates = []
        for subset in subsets:
            core = candidate_for_subset(self.graph, d, subset, cores,
                                        stats=stats, as_ids=True)
            stats.candidates_generated += 1
            candidates.append((subset, core))
        return shard_index, candidates, stats


class QueryRunnerCache:
    """An LRU of per-query :class:`ShardRunner`\\ s over one graph.

    Two owners: each pooled worker process keeps one for the graph it
    holds, and :class:`~repro.parallel.executor.WorkerPool` keeps one on
    the orchestrator side for the inline execution path.  Either way the
    cache is what makes a *repeated* query cheap — the derived context
    survives between searches.
    """

    def __init__(self, graph):
        self.graph = graph
        self._runners = OrderedDict()

    def __len__(self):
        return len(self._runners)

    def runner(self, query, plan=None):
        """The cached runner for ``query``, deriving its context on miss.

        ``plan`` short-circuits the derivation when the caller already
        planned the query (the orchestrator's inline path); workers leave
        it unset and re-derive locally, uncharged (``stats=None``).
        """
        try:
            runner = self._runners[query]
        except KeyError:
            pass
        else:
            self._runners.move_to_end(query)
            return runner
        if plan is None:
            plan = plan_query(self.graph, query)
        runner = ShardRunner(self.graph, plan.context)
        self._runners[query] = runner
        while len(self._runners) > MAX_CACHED_QUERIES:
            self._runners.popitem(last=False)
        return runner


# ----------------------------------------------------------------------
# process-pool plumbing
# ----------------------------------------------------------------------

_RUNNERS = None
_EPOCH = 0


def init_persistent_worker(payload, epoch=0):
    """Pool initializer: deserialize the graph once per worker process.

    Everything else a query needs is derived (and cached) lazily per
    query signature by :func:`run_query_shard`.  ``epoch`` stamps which
    state of a *mutable* source graph the payload captured — see
    :func:`_sync_to_epoch`.
    """
    global _RUNNERS, _EPOCH
    _RUNNERS = QueryRunnerCache(payload_graph(payload))
    _EPOCH = epoch


def ping_worker():
    """No-op task used by ``WorkerPool.warm()`` to force process spawn."""
    return _RUNNERS is not None


def _sync_to_epoch(epoch, chain):
    """Catch this worker's graph up to ``epoch`` by applying delta patches.

    ``chain`` is the pool's ``(epoch, delta payload)`` history; entries
    at or below this worker's current epoch were already applied (or
    were baked into its initializer payload) and are skipped.  A
    :class:`ProcessPoolExecutor` cannot address individual workers, so
    the pool rides the chain along every task and each worker fast-syncs
    exactly once per delta.  The runner cache is rebuilt — contexts
    derived from the old graph are unsound against the new one.
    """
    global _RUNNERS, _EPOCH
    graph = _RUNNERS.graph
    for entry_epoch, payload in chain:
        if entry_epoch > _EPOCH:
            graph = apply_delta_payload(graph, payload)
            _EPOCH = entry_epoch
    if _EPOCH != epoch:
        raise RuntimeError(
            "worker stuck at graph epoch {} but the task wants {}; the "
            "delta chain lost an entry".format(_EPOCH, epoch)
        )
    _RUNNERS = QueryRunnerCache(graph)


def run_query_shard(item):
    """Pool task entry point: ``(query, task, epoch, chain)`` → shard result.

    Requires :func:`init_persistent_worker` to have run.
    """
    if _RUNNERS is None:
        raise RuntimeError("worker process was not initialised")
    query, task, epoch, chain = item
    if epoch != _EPOCH:
        _sync_to_epoch(epoch, chain)
    return _RUNNERS.runner(query).run(task)
