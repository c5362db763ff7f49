"""Shared measurement plumbing for the experiment harness.

Every figure-reproduction function boils down to: take a dataset, sweep
one parameter, run one or more algorithms per point, and record
``(time, cover size, search counters)`` rows.  :func:`measure_point` is
that inner loop; the sweep modules compose it.
"""

from repro.core.api import search_dccs
from repro.graph.backend import resolve_search_graph
from repro.utils.errors import ParameterError


def measure_point(graph, d, s, k, methods, seed=0, jobs=None, engine=None,
                  **options):
    """Run each method once and return one row per method.

    ``options`` are forwarded to :func:`repro.core.search_dccs` (pruning
    and preprocessing switches for the ablations).  ``jobs`` selects the
    execution mode the same way it does on ``search_dccs``:
    ``None`` measures the single-process searches, anything else a
    one-query engine (greedy's candidate family on its pool; the same
    answers either way).

    ``engine`` reuses a warm :class:`repro.engine.DCCEngine` that owns
    ``graph`` (``jobs`` is then the engine's own).  Timer
    semantics differ deliberately between the two parallel modes:
    without an engine each row's timer *includes* the worker-pool spawn,
    because that is what a one-shot caller actually pays; with an engine
    the pool is warmed before the first timed row, so rows record the
    amortised per-query latency of a session — see
    ``docs/experiments.md``.  Either way the one-time freeze is warmed
    up front: these rows compare *methods*, so the freeze cost must not
    land on whichever method runs first.

    A sequential row searches the frozen graph with an empty memo
    (:meth:`~repro.graph.frozen.FrozenMultiLayerGraph.with_empty_memo`):
    the frozen graph keeps layer cores, unions, fixed points and d-CCs,
    so a search after another would read what that one peeled, and
    each row pays its own peels instead, as each run of the paper's
    Section VI does.
    """
    if engine is not None:
        if engine.source_graph is not graph:
            raise ParameterError(
                "the supplied engine owns a different graph than the one "
                "being measured"
            )
        engine.warm()

        def run(method):
            return engine.search(d, s, k, method=method, seed=seed,
                                 **options)
    else:
        frozen, _ = resolve_search_graph(graph)

        def run(method):
            target = graph if jobs is not None else frozen.with_empty_memo()
            return search_dccs(target, d, s, k, method=method, seed=seed,
                               jobs=jobs, **options)
    rows = []
    for method in methods:
        rows.append(result_row(run(method), method=method, d=d, s=s, k=k))
    return rows


def result_row(result, **extra):
    """Flatten a :class:`DCCSResult` into a table row dict."""
    row = {
        "algorithm": result.algorithm,
        "time_s": result.elapsed,
        "cover": result.cover_size,
        "sets": len(result.sets),
        "dcc_calls": result.stats.dcc_calls,
        "candidates": result.stats.candidates_generated,
        "pruned": result.stats.candidates_pruned,
    }
    row.update(extra)
    return row


def sweep(graph, parameter, values, base, methods, jobs=None, engine=None,
          host=None, graph_name=None, **options):
    """Sweep ``parameter`` over ``values`` with other params from ``base``.

    ``base`` maps ``d``/``s``/``k`` to their fixed values; the swept
    parameter overrides its entry.  Returns a flat list of rows with the
    swept value recorded under the parameter name.  The freeze is paid
    once per graph (cached) and excluded from every row:
    :func:`measure_point` warms the conversion cache before its timers
    start, so rows compare methods only.

    Parallel sweeps run through one engine session: with ``jobs`` set
    (and no ``engine`` supplied) a :class:`repro.engine.DCCEngine` is
    created once and serves **every point**, so the pool spawns once per
    sweep instead of once per row and per-graph artifacts carry across
    points.  Pass ``engine=`` to share a session across sweeps.

    ``host`` shares a :class:`repro.host.DCCHost` across sweeps over
    *different* graphs: the sweep attaches ``graph`` under
    ``graph_name`` (default: the graph's own name; auto-suffixed when
    the name is already serving a different graph object, e.g. the same
    dataset at another scale) on first use and serves every row through
    the host's engine for it, re-acquired per row so host-level
    eviction between rows only costs a cold query, never a crash.  The host outlives the sweep — closing it (and its
    pools) stays the caller's job, which is the point: one warm host
    amortises engines across a whole table of dataset rows.

    ``host`` may also be an :class:`repro.aio.AsyncDCCHost`: each
    point's methods are then served as **one async batch**
    (:meth:`~repro.aio.AsyncDCCHost.run_batch`), so a point's rows
    pipeline through the engine and duplicate specs coalesce.  Results
    are bitwise identical to the synchronous host path — only the
    serving topology changes.  Per-row times are the engine-measured
    per-query windows; batch windows overlap, so do not sum them.
    Closing the async host (``aclose``/``run_batch``'s own drain) stays
    the caller's job, exactly like the sync host.  Not usable from
    inside a running event loop.
    """
    own_engine = None
    use_host = engine is None and host is not None
    async_host = None
    if use_host and hasattr(host, "run_batch"):
        async_host, host = host, host.host
    if use_host:
        if graph_name is None:
            graph_name = getattr(graph, "name", "") \
                or "sweep-graph-{:x}".format(id(graph))
        if host.is_attached(graph_name) and \
                host.graph(graph_name) is not graph:
            # Same name, different graph object — the vary_* wrappers
            # reuse the dataset name, so this is the same dataset at
            # another scale/seed.  Derive a unique name instead of
            # aborting; identical graphs still share one session
            # because the dataset loader memoises by (name, scale,
            # seed).
            graph_name = "{}@{:x}".format(graph_name, id(graph))
        if not host.is_attached(graph_name):
            host.attach(graph_name, graph, jobs=jobs)
    elif engine is None and jobs is not None:
        from repro.engine import DCCEngine

        own_engine = engine = DCCEngine(graph, jobs=jobs)
    rows = []
    try:
        for value in values:
            point = dict(base)
            point[parameter] = value
            if async_host is not None:
                point_rows = _async_point(async_host, graph_name, point,
                                          methods, options)
            else:
                if use_host:
                    engine = host.engine(graph_name)
                point_rows = measure_point(
                    graph, point["d"], point["s"], point["k"], methods,
                    jobs=jobs, engine=engine, **options
                )
            for row in point_rows:
                row[parameter] = value
                rows.append(row)
    finally:
        if own_engine is not None:
            own_engine.close()
    return rows


def _async_point(async_host, graph_name, point, methods, options):
    """One sweep point served as a single async batch; rows per method.

    Mirrors :func:`measure_point`'s engine path spec-for-spec (same
    default ``seed=0``, same option forwarding, same warm-pool timer
    semantics — the engine is admitted and warmed before the timed
    batch, so rows record amortised per-query latency, not pool spawn)
    and the recorded rows are bitwise comparable — the methods of the
    point just travel together through the queues and coalescer instead
    of one blocking call each.
    """
    async_host.host.engine(graph_name).warm()
    specs = []
    for method in methods:
        spec = dict(options, graph=graph_name, d=point["d"], s=point["s"],
                    k=point["k"], method=method)
        spec.setdefault("seed", 0)
        specs.append(spec)
    results = async_host.run_batch(specs)
    return [
        result_row(result, method=method, d=point["d"], s=point["s"],
                   k=point["k"])
        for method, result in zip(methods, results)
    ]
