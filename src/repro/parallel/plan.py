"""Query specs and deterministic greedy planning, shared across process roles.

Only greedy queries reach the pool: bottom-up and top-down run their
sequential algorithms in process (see :mod:`repro.parallel.search`).
Everything a greedy shard needs beyond the graph itself — the
preprocessed core masks — is a *pure function* of ``(graph, d, s,
options)``.  So a query crosses the process boundary as just its spec
(:class:`Query`), and whoever holds a copy of the graph re-derives the
rest locally with :func:`plan_query`:

* the **orchestrator** plans with a live ``stats`` object (preprocessing
  cost is charged exactly once, to the query's own counters) and an
  optional artifact cache (see :mod:`repro.engine.cache`);
* **pooled workers** plan with ``stats=None`` — the classic rule that
  worker-side rebuilds never touch the merged counters, so aggregated
  stats cannot drift with the worker count.

Worker-derived masks match the orchestrator's bit for bit because the
vertex-deletion fixed point is unique.  ``tests/test_parallel.py`` and
``tests/test_engine.py`` hold this invariant under property testing.
"""

from dataclasses import dataclass
from itertools import combinations

from repro.core.api import METHOD_OPTIONS, check_options
from repro.core.dcc import validate_search_params
from repro.core.preprocess import vertex_deletion
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
    """A greedy query's shard context and its chunked tasks.

    ``context`` holds ``d`` and the preprocessed core masks; each task
    is ``(shard index, layer subsets)``.
    """

    context: dict
    tasks: list


def _chunked(items, chunks):
    """Cut ``items`` into at most ``chunks`` contiguous, ordered slices."""
    size = max(1, -(-len(items) // max(1, chunks)))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _preprocess(graph, d, s, enabled, stats, artifacts):
    if artifacts is not None:
        prep, delta = artifacts.preprocess(d, s, enabled)
        if stats is not None:
            stats.merge(delta)
        return prep
    return vertex_deletion(graph, d, s, enabled=enabled, stats=stats)


def plan_query(graph, query, workers=1, stats=None, artifacts=None):
    """Derive one greedy query's execution plan against ``graph``.

    Deterministic given ``(graph, query)`` — ``workers`` only controls
    how many chunks the candidate family is cut into, never what they
    contain, and ``stats``/``artifacts`` only control accounting and
    reuse.  Pooled workers call this with the defaults and keep just
    the context; see the module docstring for why the two derivations
    agree.
    """
    validate_search_params(graph, query.d, query.s, query.k)
    vd = query.options_dict()["use_vertex_deletion"]
    prep = _preprocess(graph, query.d, query.s, vd, stats, artifacts)
    # Greedy shards only bound and peel, so they take the cores in the
    # form the kernels compute on: masks.
    cores, _ = prep.kernel_view()
    subsets = list(combinations(range(graph.num_layers), query.s))
    chunks = _chunked(subsets, CHUNKS_PER_WORKER * max(1, workers))
    return QueryPlan({"d": query.d, "cores": cores},
                     list(enumerate(chunks)))
