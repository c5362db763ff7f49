"""Shard execution: the code that runs inside worker processes.

A *shard* is an independent slice of one search's candidate space (see
:mod:`repro.parallel.search` for how the three algorithms are sliced).
:class:`ShardRunner` executes shards against one graph plus one immutable
search *context* (parameters, preprocessed cores, layer order, the seeded
initial result sets, ablation flags).  The same class backs both
execution modes:

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
context came fresh or from its cache.  Worker-side derivations (the
whole query context, signature groups, the top-down hierarchy index) run
with ``stats=None`` so the merged counters cannot drift with the worker
count; the orchestrator charges each derivation to the run's stats
exactly once on its own side.
"""

from collections import OrderedDict

from repro.core.bottomup import _BottomUpSearch
from repro.core.coverage import DiversifiedTopK
from repro.core.dcc import candidate_for_subset
from repro.core.index import CoreHierarchyIndex
from repro.core.stats import SearchStats
from repro.core.topdown import _TopDownSearch
from repro.parallel.plan import plan_query
from repro.parallel.serialize import apply_delta_payload, payload_graph
from repro.utils.rng import make_rng

# Per-process cap on cached query contexts.  Eight comfortably covers a
# sweep alternating a few methods over one parameter; beyond that the
# oldest context is evicted (a repeat then re-derives it, results
# unchanged).
MAX_CACHED_QUERIES = 8


def shard_seed(seed, shard_index):
    """A per-shard RNG seed, derived deterministically from the search seed.

    The sequential top-down search consumes one RNG stream; a sharded
    search gives every shard its own stream so the draws of one shard can
    never depend on how much randomness another shard consumed.  ``None``
    maps to the library default seed 0, mirroring :func:`make_rng`.
    """
    base = 0 if seed is None else seed
    return base * 1000003 + shard_index + 1


class _RecordingTopK(DiversifiedTopK):
    """A DiversifiedTopK that records accepted candidates while armed.

    Shards run the normal Update machinery locally (so local pruning
    stays armed exactly as in the sequential search) but must report
    every *accepted* candidate to the orchestrator, which replays the
    reports through the final top-k in canonical shard order.  Seeding
    with the initial result sets happens before :attr:`recording` is
    switched on, so seeds are not re-reported.
    """

    def __init__(self, k):
        super().__init__(k)
        self.accepted = []
        self.recording = False

    def try_update(self, candidate, label=None):
        ok = super().try_update(candidate, label=label)
        if ok and self.recording:
            self.accepted.append((label, frozenset(candidate)))
        return ok


class ShardRunner:
    """Executes shard tasks against one graph and one search context.

    Parameters
    ----------
    graph:
        The frozen graph; pooled workers hand runners one rebuilt from
        the serialized payload.
    context:
        The immutable per-search dict built by
        :func:`repro.parallel.plan.plan_query` (keys: ``method``, ``d``,
        ``s``, ``k``, ``cores``, ``alive``, ``order``, ``init_sets``,
        ``flags``, plus ``root_core``/``seed`` for the top-down method).
        ``cores``/``alive`` are frozensets for bottom-up and the prep's
        kernel view, masks, for greedy and top-down.
    index:
        An optional pre-built :class:`CoreHierarchyIndex` for top-down
        shards.  The inline path passes the orchestrator's; pooled
        workers pass their locally derived one (built silently — see the
        module docstring).
    """

    def __init__(self, graph, context, index=None):
        self.graph = graph
        self.context = context
        self._index = index
        self._index_ready = index is not None

    def run(self, task):
        """Execute ``(shard_index, kind, spec)`` → ``(shard_index,
        accepted-or-generated candidates, SearchStats)``."""
        shard_index, kind, spec = task
        stats = SearchStats()
        if kind == "greedy":
            candidates = self._greedy_chunk(spec, stats)
        elif kind == "bottom-up":
            candidates = self._bottomup_subtree(spec, stats)
        elif kind == "top-down":
            candidates = self._topdown_subtree(shard_index, spec, stats)
        else:
            raise ValueError("unknown shard kind {!r}".format(kind))
        return shard_index, candidates, stats

    # ------------------------------------------------------------------
    # per-method shard bodies
    # ------------------------------------------------------------------

    def _greedy_chunk(self, subsets, stats):
        """One chunk of the candidate family: ``(L, C^d_L)`` per subset,
        each d-CC as its ascending ids.

        Byte-for-byte the per-subset work of the sequential
        ``enumerate_candidates`` loop (same Lemma 1 bound from the same
        mask or set cores, same counter increments, the same d-CCs the
        graph keeps), so summed shard stats equal the sequential run's.
        """
        context = self.context
        d = context["d"]
        cores = context["cores"]
        candidates = []
        for subset in subsets:
            core = candidate_for_subset(self.graph, d, subset, cores,
                                        stats=stats, as_ids=True)
            stats.candidates_generated += 1
            candidates.append((subset, core))
        return candidates

    def _bottomup_subtree(self, position, stats):
        context = self.context
        flags = context["flags"]
        topk = self._seeded_topk()
        search = _BottomUpSearch(
            graph=self.graph,
            d=context["d"],
            s=context["s"],
            order=context["order"],
            cores=context["cores"],
            topk=topk,
            stats=stats,
            use_order_pruning=flags["use_order_pruning"],
            use_layer_pruning=flags["use_layer_pruning"],
        )
        search.run_subtree(position, context["alive"])
        return topk.accepted

    def _topdown_subtree(self, shard_index, drop, stats):
        context = self.context
        flags = context["flags"]
        topk = self._seeded_topk()
        search = _TopDownSearch(
            graph=self.graph,
            d=context["d"],
            s=context["s"],
            order=context["order"],
            cores=context["cores"],
            topk=topk,
            index=self._topdown_index(),
            rng=make_rng(shard_seed(context["seed"], shard_index)),
            stats=stats,
            use_order_pruning=flags["use_order_pruning"],
            use_potential_pruning=flags["use_potential_pruning"],
        )
        # The root potential is the whole alive set, in its own form.
        root_positions = frozenset(range(self.graph.num_layers))
        search.generate_shard(
            root_positions, context["root_core"], context["alive"], drop,
        )
        return topk.accepted

    # ------------------------------------------------------------------
    # lazily built per-runner state
    # ------------------------------------------------------------------

    def _seeded_topk(self):
        """A fresh local top-k, seeded with the orchestrator's init sets.

        Re-offering the (at most ``k``, non-empty, deduplicated-by-id)
        initial sets in their original order reproduces the post-init
        result state, which is what arms the Eq. (1) pruning rules inside
        the shard exactly as in the sequential search.
        """
        topk = _RecordingTopK(self.context["k"])
        for label, members in self.context["init_sets"]:
            topk.try_update(members, label=label)
        topk.recording = True
        return topk

    def _topdown_index(self):
        """The hierarchy index for top-down shards (cached per runner).

        Built silently (``stats=None``): the orchestrator accounts one
        canonical build, and charging per-worker rebuilds would make the
        merged counters depend on the worker count.
        """
        if not self._index_ready:
            if self.context["flags"]["use_index"]:
                self._index = CoreHierarchyIndex(
                    self.graph, self.context["d"],
                    within=self.context["alive"], stats=None,
                )
            self._index_ready = True
        return self._index


class QueryRunnerCache:
    """An LRU of per-query :class:`ShardRunner`\\ s over one graph.

    Two owners: each pooled worker process keeps one for the graph it
    holds, and :class:`~repro.parallel.executor.WorkerPool` keeps one on
    the orchestrator side for the inline execution path.  Either way the
    cache is what makes a *repeated* query cheap — the derived context,
    signature groups and hierarchy index survive between searches.
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
        runner = ShardRunner(self.graph, plan.context, index=plan.index)
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
