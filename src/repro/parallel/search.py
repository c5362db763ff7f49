"""Engine query execution: greedy through the pool, the tree searches in
process.

* **greedy** — the candidate family is ``binom(l, s)`` independent d-CC
  computations; the layer subsets are cut into chunks (a few per worker,
  so the queue stays balanced; see :mod:`repro.parallel.plan`) and the
  classic greedy max-k-cover runs over the concatenated family, in
  subset order.  The output *and* the summed counters are bitwise
  identical to the sequential ``gd_dccs`` for every worker count.
* **bottom-up** and **top-down** — the sequential ``bu_dccs`` and
  ``td_dccs`` of Figs. 7 and 11, run in process on the caller's graph
  when the query starts.  Their pruning spans the whole search tree
  through one evolving top-k, which is what Theorems 3 and 4 prove the
  1/4 ratio for, so they are not split into shards; they reuse what the
  frozen graph keeps (layer cores, core unions, deletion fixed points,
  layer-subset d-CCs) and never touch the pool.

So an engine answer equals ``search_dccs(..., jobs=None)`` for every
method and every ``jobs`` value: sets, labels and counters.

Execution happens through a caller-owned
:class:`~repro.parallel.executor.WorkerPool`: :func:`start_query` takes
the pool of a :class:`repro.engine.DCCEngine`, which amortises spawn
cost across a whole session (``search_dccs(..., jobs=N)`` is a one-query
engine).  Batches pipeline one level up: the async host's dispatcher
starts every query of a drained batch before it collects any.
"""

from repro.core.bottomup import bu_dccs
from repro.core.greedy import greedy_max_k_cover
from repro.core.result import DCCSResult
from repro.core.stats import SearchStats
from repro.core.topdown import td_dccs
from repro.parallel.plan import plan_query
from repro.utils.timer import Timer

# The methods that run their sequential algorithm in process.
IN_PROCESS = {"bottom-up": bu_dccs, "top-down": td_dccs}


def _finish(query, results, stats):
    """Merge one greedy query's shard results into its :class:`DCCSResult`.

    ``elapsed`` is left at zero — the caller owns the clock, because
    what counts as "the query's time" differs between the one-shot path
    (plan + execute + merge) and a pipelined batch (windows overlap).
    """
    candidates = []
    for _, chunk, shard_stats in results:
        stats.merge(shard_stats)
        candidates.extend(chunk)
    chosen = greedy_max_k_cover(candidates, query.k)
    stats.extra["candidate_family_size"] = len(candidates)
    return DCCSResult(
        sets=[members for _, members in chosen],
        labels=[label for label, _ in chosen],
        algorithm="greedy",
        params=(query.d, query.s, query.k),
        stats=stats,
        elapsed=0.0,
    )


class PendingQuery:
    """One planned-and-submitted greedy query awaiting collection.

    The future-style handle the submission/collection split hands out:
    :func:`start_query` plans a query and submits its shard tasks
    without blocking; :meth:`finish` blocks for the results and merges
    them.  Between the two, :meth:`waitables` exposes the in-flight
    shard futures so an async caller can await completion first and pay
    only the merge inside :meth:`finish` — no thread parked on worker
    execution.
    """

    __slots__ = ("query", "handle", "stats", "planned")

    def __init__(self, query, handle, stats, planned):
        self.query = query
        self.handle = handle
        self.stats = stats
        self.planned = planned

    def waitables(self):
        """The in-flight shard futures (empty for inline execution)."""
        return self.handle.waitables()

    def finish(self, pool):
        """Collect and merge; the query's :class:`DCCSResult`.

        ``elapsed`` spans the plan phase plus this collect-and-merge
        phase — for back-to-back start/finish that is the classic
        one-shot window; in a pipelined batch the windows of different
        queries overlap, which is the point of a batch.
        """
        with Timer() as merge_timer:
            result = _finish(self.query, pool.collect(self.handle),
                             self.stats)
        result.elapsed = self.planned + merge_timer.elapsed
        return result


class AnsweredQuery:
    """A query answered in process when it started: nothing in flight."""

    __slots__ = ("result",)

    def __init__(self, result):
        self.result = result

    def waitables(self):
        return ()

    def finish(self, pool):
        return self.result


def start_query(graph, query, pool, stats=None, artifacts=None):
    """Start one query; a :class:`PendingQuery` or :class:`AnsweredQuery`.

    A greedy query is planned and its shards submitted without blocking
    on execution — workers start chewing while the caller plans the next
    query (pipelining) or awaits the handle's
    :meth:`~PendingQuery.waitables` (the async front-end).  A bottom-up
    or top-down query runs its sequential algorithm here, charging
    ``stats``, and comes back answered.
    """
    if stats is None:
        stats = SearchStats()
    search = IN_PROCESS.get(query.method)
    if search is not None:
        return AnsweredQuery(search(graph, query.d, query.s, query.k,
                                    stats=stats, **query.options_dict()))
    with Timer() as plan_timer:
        plan = plan_query(graph, query, workers=pool.workers, stats=stats,
                          artifacts=artifacts)
        handle = pool.submit_query(query, plan.tasks, plan)
    return PendingQuery(query, handle, stats, plan_timer.elapsed)

