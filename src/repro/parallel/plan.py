"""Query specs and deterministic planning, shared across process roles.

The persistent-pool design rests on one fact: everything a shard needs
beyond the graph itself — the preprocessed cores, the layer order, the
seeded initial result sets, the hierarchy index — is a *pure function* of
``(graph, method, d, s, k, options)``.  So a query crosses the process
boundary as just that tuple (:class:`Query`), and whoever holds a copy of
the graph re-derives the rest locally with :func:`plan_query`:

* the **orchestrator** plans with a live ``stats`` object (preprocessing
  cost is charged exactly once, to the query's own counters) and an
  optional artifact cache (see :mod:`repro.engine.cache`);
* **pooled workers** plan with ``stats=None`` — the classic rule that
  worker-side rebuilds never touch the merged counters, so aggregated
  stats cannot drift with the worker count.

Worker-derived state matches the orchestrator's bit for bit because every
derived piece is order-independent: cores and d-CCs are unique fixed
points, layer orders sort by size with index tie-breaks, and the InitTopK
selection compares cardinalities only.  ``tests/test_parallel.py`` and
``tests/test_engine.py`` hold this invariant under property testing.
"""

from dataclasses import dataclass, field
from itertools import combinations

from repro.core.api import METHOD_OPTIONS, check_options
from repro.core.coverage import DiversifiedTopK
from repro.core.dcc import kept_coherent_core, validate_search_params
from repro.core.index import CoreHierarchyIndex
from repro.core.initk import init_topk
from repro.core.preprocess import order_layers, vertex_deletion
from repro.utils.errors import ParameterError

# Chunks per worker for the greedy candidate family: enough slack that a
# straggler chunk cannot idle the rest of the pool, few enough that task
# overhead stays negligible.  Chunk boundaries never affect results.
CHUNKS_PER_WORKER = 4

@dataclass(frozen=True)
class Query:
    """One d-CC search, fully specified and cheap to ship.

    ``options`` is a sorted tuple of ``(name, value)`` pairs with every
    method option of :data:`repro.core.api.METHOD_OPTIONS` present
    (defaults filled by :func:`make_query`), which makes a Query
    hashable — it doubles as the worker-side context cache key — and
    picklable at a few dozen bytes.
    """

    method: str
    d: int
    s: int
    k: int
    options: tuple

    def options_dict(self):
        return dict(self.options)


def make_query(method, d, s, k, **options):
    """Build a :class:`Query`, validating and defaulting its options.

    Callers take ``stats`` out of ``options`` first (the engine merges
    it after the search); a Query carries search options only.
    """
    if method not in METHOD_OPTIONS:
        raise ParameterError(
            "method must be one of {}, got {!r}".format(
                tuple(METHOD_OPTIONS), method
            )
        )
    check_options(method, options)
    defaults = dict(METHOD_OPTIONS[method])
    defaults.update(options)
    return Query(method, d, s, k, tuple(sorted(defaults.items())))


@dataclass
class QueryPlan:
    """Everything the orchestrator derives before shards run.

    Workers re-derive the same plan (minus stats charging) and consume
    only ``context`` and ``index``; ``topk``/``root_core``/``root_only``
    exist for the orchestrator's merge phase.
    """

    query: Query
    context: dict
    tasks: list = field(default_factory=list)
    topk: DiversifiedTopK = None
    index: CoreHierarchyIndex = None
    root_core: frozenset = None
    root_only: bool = False


def _chunked(items, chunks):
    """Cut ``items`` into at most ``chunks`` contiguous, ordered slices."""
    size = max(1, -(-len(items) // max(1, chunks)))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _context(method, d, s, k, cores, alive, order, init_sets, flags,
             **extras):
    context = {
        "method": method,
        "d": d,
        "s": s,
        "k": k,
        "cores": cores,
        "alive": alive,
        "order": tuple(order) if order is not None else None,
        "init_sets": init_sets,
        "flags": flags,
        "seed": None,
    }
    context.update(extras)
    return context


def _frozen_sets(prep):
    """``(cores, alive)`` of ``prep`` as frozensets, for bottom-up shards."""
    return [frozenset(core) for core in prep.cores], frozenset(prep.alive)


def _seeded(topk):
    """Freeze a top-k's labelled sets for replay on the shard side."""
    return [(label, frozenset(members)) for label, members in
            topk.labelled_sets()]


def _preprocess(graph, d, s, enabled, stats, artifacts):
    if artifacts is not None:
        prep, delta = artifacts.preprocess(d, s, enabled)
        if stats is not None:
            stats.merge(delta)
        return prep
    return vertex_deletion(graph, d, s, enabled=enabled, stats=stats)


def _init_sets(graph, d, s, k, vd_enabled, prep, stats, artifacts):
    """The seeded initial result sets, as replayable ``(label, set)`` pairs."""
    if artifacts is not None:
        init_sets, delta = artifacts.init_sets(d, s, k, vd_enabled, prep)
        if stats is not None:
            stats.merge(delta)
        return init_sets
    cores, alive = prep.kernel_view()
    topk = init_topk(graph, d, s, k, cores, within=alive, stats=stats)
    return _seeded(topk)


def _replayed_topk(k, init_sets):
    """Reproduce the post-init top-k state from its labelled sets.

    Re-offering the (at most ``k``, non-empty, deduplicated-by-id) sets
    in their original order reproduces every acceptance decision, which
    is the same replay the shard-local top-k's perform."""
    topk = DiversifiedTopK(k)
    for label, members in init_sets:
        topk.try_update(members, label=label)
    return topk


def plan_query(graph, query, workers=1, stats=None, artifacts=None):
    """Derive one query's full execution plan against ``graph``.

    Deterministic given ``(graph, query)`` — ``workers`` only controls
    how many chunks the greedy candidate family is cut into, never what
    they contain, and ``stats``/``artifacts`` only control accounting
    and reuse.  Pooled workers call this with the defaults and keep just
    the context; see the module docstring for why the two derivations
    agree.
    """
    validate_search_params(graph, query.d, query.s, query.k)
    options = query.options_dict()
    d, s, k = query.d, query.s, query.k
    vd = options["use_vertex_deletion"]
    prep = _preprocess(graph, d, s, vd, stats, artifacts)

    if query.method == "greedy":
        # Greedy shards only bound and peel, so they take the cores in
        # the form the kernels compute on: masks.
        context = _context("greedy", d, s, k, *prep.kernel_view(),
                           None, [], {})
        subsets = list(combinations(range(graph.num_layers), s))
        chunks = _chunked(subsets, CHUNKS_PER_WORKER * max(1, workers))
        tasks = [
            (index, "greedy", chunk) for index, chunk in enumerate(chunks)
        ]
        return QueryPlan(query, context, tasks)

    init_sets = []
    if options["use_init_topk"]:
        init_sets = _init_sets(graph, d, s, k, vd, prep, stats, artifacts)
    topk = _replayed_topk(k, init_sets)

    if query.method == "bottom-up":
        order = order_layers(prep.cores, descending=True,
                             enabled=options["use_layer_sorting"])
        context = _context(
            "bottom-up", d, s, k, *_frozen_sets(prep), order, init_sets,
            {
                "use_order_pruning": options["use_order_pruning"],
                "use_layer_pruning": options["use_layer_pruning"],
            },
        )
        # A subtree rooted at position p only reaches depth s when at
        # least s positions remain at or after p.
        tasks = [
            (index, "bottom-up", position)
            for index, position in enumerate(range(len(order) - s + 1))
        ]
        return QueryPlan(query, context, tasks, topk=topk)

    # top-down: its shards keep the potential sets in the kernel view's
    # form, masks.
    cores, alive = prep.kernel_view()
    order = order_layers(cores, descending=False,
                         enabled=options["use_layer_sorting"])
    index = None
    if options["use_index"]:
        if artifacts is not None:
            index, delta = artifacts.hierarchy_index(d, s, vd, prep)
            if stats is not None:
                stats.merge(delta)
        else:
            index = CoreHierarchyIndex(graph, d, within=alive, stats=stats)
    # The graph keeps the root d-CC (it depends only on d).
    root_core = kept_coherent_core(graph, tuple(graph.layers()), d, alive,
                                   stats=stats)
    if s == graph.num_layers:
        # The root is the only candidate; nothing to shard.
        return QueryPlan(query, {}, [], topk=topk, index=index,
                         root_core=root_core, root_only=True)
    context = _context(
        "top-down", d, s, k, cores, alive, order, init_sets,
        {
            "use_order_pruning": options["use_order_pruning"],
            "use_potential_pruning": options["use_potential_pruning"],
            "use_index": options["use_index"],
        },
        root_core=root_core,
        seed=options["seed"],
    )
    tasks = [
        (index_, "top-down", drop)
        for index_, drop in enumerate(range(graph.num_layers))
    ]
    return QueryPlan(query, context, tasks, topk=topk, index=index,
                     root_core=root_core)

