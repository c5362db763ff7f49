"""The unified public entry point for diversified coherent core search.

:func:`search_dccs` hides the choice between the three algorithms of the
paper behind one call.  The default ``method="auto"`` applies the paper's
own guidance (end of Section I): the bottom-up search wins for
``s < l/2``, the top-down search for ``s >= l/2``.

It also hides the choice of graph *backend* (see
:mod:`repro.graph.backend`): ``backend="auto"`` freezes the graph into
the flat-array CSR representation when the O(n + m) freeze cost is
profitable, runs the search there, and translates the reported vertex
sets back to the caller's labels — results are identical between
backends, bit for bit, only the wall clock differs.

Finally it hides the *execution mode*: ``jobs=None`` (default) runs the
classic single-process algorithms, while any other value wraps a
short-lived :class:`repro.engine.DCCEngine` session around the call —
the parallel search of :mod:`repro.parallel` over one shared graph.
Parallel results are bitwise identical for every worker count (and, for
the greedy method, identical to the sequential run as well); callers
issuing many searches over one graph should hold a ``DCCEngine`` open
themselves and amortise the pool across queries.

Every entry path — both execution modes here, the engine, the hosts and
the socket server — checks a search's option names and values with
:func:`check_options` and its ``stats`` with :func:`check_stats`, so a
bad spec raises the same :class:`~repro.utils.errors.ParameterError`
wherever it enters.
"""

from repro.core.bottomup import bu_dccs
from repro.core.dcc import validate_search_params
from repro.core.greedy import gd_dccs
from repro.core.stats import SearchStats
from repro.core.topdown import td_dccs
from repro.graph.backend import check_graph, resolve_search_graph
from repro.utils.errors import ParameterError
from repro.utils.timer import Timer

_METHODS = ("auto", "greedy", "bottom-up", "top-down")

# The full option vocabulary per method, with defaults.  A parallel
# query (:class:`repro.parallel.plan.Query`) always carries every option
# of its method explicitly, so two queries that resolve to the same
# search are equal no matter which defaults the caller spelled out.
METHOD_OPTIONS = {
    "greedy": {
        "use_vertex_deletion": True,
    },
    "bottom-up": {
        "use_vertex_deletion": True,
        "use_layer_sorting": True,
        "use_init_topk": True,
        "use_order_pruning": True,
        "use_layer_pruning": True,
    },
    "top-down": {
        "use_vertex_deletion": True,
        "use_layer_sorting": True,
        "use_init_topk": True,
        "use_order_pruning": True,
        "use_potential_pruning": True,
        "use_index": True,
        "seed": None,
    },
}


def choose_method(num_layers, s):
    """The paper's dispatch rule: BU for ``s < l/2``, TD otherwise."""
    return "bottom-up" if s < num_layers / 2 else "top-down"


def resolve_method(num_layers, method, s, options):
    """Validate and resolve ``method``, normalising ``options`` in place.

    The one copy of the dispatch rules both entry points share —
    :func:`search_dccs` and :meth:`repro.engine.DCCEngine.search` must
    agree on them exactly, or their bitwise-equality contract breaks:
    ``"auto"`` resolves via :func:`choose_method`, and a ``seed`` is
    dropped for every method but top-down (only the Lemma 7 shortcut is
    randomised; the other methods ignore a seed so callers can sweep
    methods with uniform arguments).  The seed's value is checked before
    it is dropped, so a bad one fails on every method.
    """
    if method not in _METHODS:
        raise ParameterError(
            "method must be one of {}, got {!r}".format(_METHODS, method)
        )
    if method == "auto":
        method = choose_method(num_layers, s)
    if method != "top-down" and "seed" in options:
        _check_option_value("seed", options.pop("seed"))
    return method


def _check_option_value(name, value):
    """Reject a known option's value: switches are bools, a seed an int."""
    if name == "seed":
        valid = value is None or (isinstance(value, int)
                                  and not isinstance(value, bool))
        expected = "None or an integer"
    else:
        valid = isinstance(value, bool)
        expected = "a bool"
    if not valid:
        raise ParameterError(
            "option {!r} must be {}, got {!r}".format(name, expected, value)
        )


def check_options(method, options):
    """Reject any option the resolved ``method`` does not take.

    Every entry path calls this, so an unknown option, a ``use_*``
    switch that is not a bool, or a ``seed`` that is neither ``None``
    nor an int raises the same :class:`~repro.utils.errors.ParameterError`
    whether the search runs sequentially or through an engine.  ``stats``
    is not a search option: callers that accept it take it out first and
    check it with :func:`check_stats`.
    """
    valid = METHOD_OPTIONS[method]
    for name, value in options.items():
        if name not in valid:
            raise ParameterError(
                "unknown option {!r} for method {!r} (valid: {})".format(
                    name, method, tuple(sorted(valid))
                )
            )
        _check_option_value(name, value)


def check_stats(stats):
    """Reject a ``stats`` accumulator that is not a :class:`SearchStats`.

    Every entry path that takes ``stats`` out of a search's options calls
    this before any work, so a bad one raises
    :class:`~repro.utils.errors.ParameterError` up front instead of an
    ``AttributeError`` once the search has run.  ``None`` means no
    accumulator.
    """
    if stats is not None and not isinstance(stats, SearchStats):
        raise ParameterError(
            "stats must be None or a SearchStats, got {}".format(
                type(stats).__name__
            )
        )
    return stats


def _engine_one_shot(graph, d, s, k, method, backend, jobs, options):
    """Route one search through a short-lived :class:`DCCEngine`.

    ``search_dccs(..., jobs=N)`` *is* an engine session of length one:
    the engine resolves the backend, spawns the pool, runs the parallel
    search and translates the results, and is closed before returning —
    which is exactly what makes its output bitwise identical to a warm
    engine serving the same query.  Imported lazily: the engine pulls in
    multiprocessing plumbing that purely sequential callers never need.
    """
    from repro.engine import DCCEngine

    with DCCEngine(graph, backend=backend, jobs=jobs) as engine:
        return engine.search(d, s, k, method=method, **options)


def search_dccs(graph, d, s, k, method="auto", backend="auto", jobs=None,
                **options):
    """Find the top-k diversified d-CCs of ``graph`` on ``s`` layers.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.multilayer.MultiLayerGraph` or an
        already-frozen :class:`~repro.graph.frozen.FrozenMultiLayerGraph`.
    d:
        Minimum degree inside the reported subgraphs.
    s:
        Minimum support — the number of layers each d-CC must recur on.
    k:
        Number of diversified d-CCs to report.
    method:
        ``"auto"`` (default), ``"greedy"``, ``"bottom-up"`` or
        ``"top-down"``.
    backend:
        ``"auto"`` (default — freeze when profitable), ``"dict"`` or
        ``"frozen"``.  Reported sets are always in the vocabulary of the
        graph that was passed in.
    jobs:
        ``None`` (default) runs the classic single-process algorithms.
        Any other value routes through :mod:`repro.parallel`: ``0``
        shards across one worker process per CPU, a positive integer
        across exactly that many.  For a fixed ``seed``, results are
        bitwise identical — sets, labels and aggregated counters — for
        every ``jobs`` value (``jobs=1`` executes the same parallel
        search inline).  The greedy method additionally matches the
        sequential run exactly; the tree searches are documented shard
        variants (see :mod:`repro.parallel.search`).
    options:
        Forwarded to the chosen algorithm (preprocessing and pruning
        switches, ``seed`` for top-down, ``stats``); a name the method
        does not take, or a value of the wrong type, raises
        :class:`ParameterError` (see :func:`check_options` and
        :func:`check_stats`).

    Returns
    -------
    :class:`~repro.core.result.DCCSResult`

    Examples
    --------
    >>> from repro.graph import paper_figure1_graph
    >>> result = search_dccs(paper_figure1_graph(), d=3, s=2, k=2)
    >>> result.cover_size    # the union of C_{1,3} and C_{2,4}
    13
    """
    check_graph(graph)
    if method not in _METHODS:
        raise ParameterError(
            "method must be one of {}, got {!r}".format(_METHODS, method)
        )
    check_stats(options.get("stats"))
    if jobs is not None:
        from repro.parallel import check_jobs

        check_jobs(jobs)
        return _engine_one_shot(graph, d, s, k, method, backend, jobs,
                                options)
    # Backend resolution (a possible O(n + m) freeze — cached on the
    # graph, so repeated searches pay it once) and the final id-to-label
    # translation are charged to the result's elapsed time: reported
    # timings must not get faster by moving work outside the clock.
    # The engine path above applies the same checks in the same order.
    validate_search_params(graph, d, s, k)
    method = resolve_method(graph.num_layers, method, s, options)
    check_options(method, {name: value for name, value in options.items()
                           if name != "stats"})
    with Timer() as overhead:
        search_graph, translate = resolve_search_graph(graph, backend)
    if method == "greedy":
        result = gd_dccs(search_graph, d, s, k, **options)
    elif method == "bottom-up":
        result = bu_dccs(search_graph, d, s, k, **options)
    else:
        result = td_dccs(search_graph, d, s, k, **options)
    result.elapsed += overhead.elapsed
    if translate:
        # The search ran on an internally frozen copy: convert the dense
        # ids back to the labels of the graph the caller handed us.
        with Timer() as translation:
            result.sets = [
                search_graph.labels_for(members) for members in result.sets
            ]
        result.elapsed += translation.elapsed
    return result
