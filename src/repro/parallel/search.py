"""Parallel DCCS orchestration: plan, execute, merge.

The three algorithms shard along their natural seams (see
:mod:`repro.parallel.plan` for the planning half):

* **greedy** — the candidate family is ``binom(l, s)`` independent d-CC
  computations; the layer subsets are cut into chunks (a few per worker,
  so the queue stays balanced) and the classic greedy max-k-cover runs
  over the concatenated family.  Sharding is invisible here: the output
  *and* the summed counters are bitwise identical to the sequential
  ``gd_dccs``.
* **bottom-up** — one shard per root child of the prefix search tree
  (the subtree at position ``p`` holds exactly the layer subsets whose
  smallest search position is ``p``); each shard runs the full BU-Gen
  recursion with a local top-k seeded from the InitTopK result sets, and
  reports every locally accepted candidate.
* **top-down** — one shard per root child (which layer is shed first),
  same local-top-k scheme, with per-shard RNG streams for the Lemma 7
  shortcut.

The merge replays shard reports through one final
:class:`DiversifiedTopK` — the *same* Update machinery as the sequential
searches — strictly in shard order.  Shard *structure* never depends on
the worker count, so for every method and every seed, ``jobs=N``
returns bitwise identical sets, labels and aggregated counters for all
``N`` (property-tested in ``tests/test_parallel.py``).

What parallel mode does *not* promise is equality with the sequential
tree searches: the cross-subtree pruning state (Lemmas 3/4/6 spanning
root children, and the evolving shared top-k) cannot exist across
isolated shards, so parallel bottom-up/top-down are documented variants
that explore at least as much of the tree as their sequential
counterparts and merge through identical selection logic.  Greedy has no
cross-candidate search state, hence its exact-parity guarantee.

Execution happens through a caller-owned
:class:`~repro.parallel.executor.WorkerPool`: :func:`start_query` and
:func:`execute_query_batch` take the pool of a
:class:`repro.engine.DCCEngine`, which amortises spawn cost across a
whole session (``search_dccs(..., jobs=N)`` is a one-query engine).
"""

from repro.core.greedy import greedy_max_k_cover
from repro.core.result import DCCSResult, result_from_topk
from repro.core.stats import SearchStats
from repro.parallel.plan import plan_query
from repro.utils.timer import Timer


def _merge_shards(results, stats, topk):
    """Replay shard reports, in shard order, through the final top-k."""
    for _, candidates, shard_stats in results:
        stats.merge(shard_stats)
        for label, members in candidates:
            topk.try_update(members, label=label)


def _finish(graph, query, plan, results, stats):
    """Merge one query's shard results into its :class:`DCCSResult`.

    ``elapsed`` is left at zero — the caller owns the clock, because
    what counts as "the query's time" differs between the one-shot path
    (plan + execute + merge) and a pipelined batch (windows overlap).
    """
    d, s, k = query.d, query.s, query.k
    if query.method == "greedy":
        candidates = []
        for _, chunk, shard_stats in results:
            stats.merge(shard_stats)
            candidates.extend(chunk)
        chosen = greedy_max_k_cover(candidates, k)
        result = DCCSResult(
            sets=[members for _, members in chosen],
            labels=[label for label, _ in chosen],
            algorithm="greedy",
            params=(d, s, k),
            stats=stats,
            elapsed=0.0,
        )
        stats.extra["candidate_family_size"] = len(candidates)
        return result
    topk = plan.topk
    if plan.root_only:
        # The root is the only candidate; nothing was sharded.
        stats.candidates_generated += 1
        if topk.try_update(plan.root_core, label=tuple(graph.layers())):
            stats.updates_accepted += 1
    else:
        _merge_shards(results, stats, topk)
    return result_from_topk(topk, query.method, (d, s, k), stats, 0.0)


class PendingQuery:
    """One planned-and-submitted query awaiting collection.

    The future-style handle the submission/collection split hands out:
    :func:`start_query` plans a query and submits its shard tasks
    without blocking; :meth:`finish` blocks for the results and merges
    them.  Between the two, :meth:`waitables` exposes the in-flight
    shard futures so an async caller can await completion first and pay
    only the merge inside :meth:`finish` — no thread parked on worker
    execution.
    """

    __slots__ = ("graph", "query", "plan", "handle", "stats", "planned")

    def __init__(self, graph, query, plan, handle, stats, planned):
        self.graph = graph
        self.query = query
        self.plan = plan
        self.handle = handle
        self.stats = stats
        self.planned = planned

    def waitables(self):
        """The in-flight shard futures (empty for inline execution)."""
        return () if self.handle is None else self.handle.waitables()

    def finish(self, pool):
        """Collect and merge; the query's :class:`DCCSResult`.

        ``elapsed`` spans the plan phase plus this collect-and-merge
        phase — for back-to-back start/finish that is the classic
        one-shot window; in a pipelined batch the windows of different
        queries overlap, which is the point of a batch.
        """
        with Timer() as merge_timer:
            results = pool.collect(self.handle) \
                if self.handle is not None else []
            result = _finish(self.graph, self.query, self.plan, results,
                             self.stats)
        result.elapsed = self.planned + merge_timer.elapsed
        return result


def start_query(graph, query, pool, stats=None, artifacts=None):
    """Plan one query and submit its shards; a :class:`PendingQuery`.

    Submission does not block on execution — workers start chewing while
    the caller plans the next query (pipelining) or awaits the handle's
    :meth:`~PendingQuery.waitables` (the async front-end).
    """
    if stats is None:
        stats = SearchStats()
    with Timer() as plan_timer:
        plan = plan_query(graph, query, workers=pool.workers, stats=stats,
                          artifacts=artifacts)
        handle = pool.submit_query(query, plan.tasks, plan) \
            if plan.tasks else None
    return PendingQuery(graph, query, plan, handle, stats,
                        plan_timer.elapsed)


def execute_query_batch(graph, queries, pool, artifacts=None):
    """Pipeline a batch of queries through one warm pool.

    Every query is planned and its shard tasks submitted *before* any
    results are collected, so workers chew query ``i``'s shards while
    the orchestrator preprocesses query ``i+1`` — and merging happens in
    submission order, keeping each result bitwise identical to the
    same query started and finished alone.
    """
    staged = [start_query(graph, query, pool, artifacts=artifacts)
              for query in queries]
    return [pending.finish(pool) for pending in staged]
