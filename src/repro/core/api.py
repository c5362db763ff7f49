"""The unified public entry point for diversified coherent core search.

:func:`search_dccs` hides the choice between the three algorithms of the
paper behind one call.  The default ``method="auto"`` applies the paper's
own guidance (end of Section I): the bottom-up search wins for
``s < l/2``, the top-down search for ``s >= l/2``.

Every search runs on the frozen CSR graph: a
:class:`~repro.graph.multilayer.MultiLayerGraph` is frozen (the
conversion is cached on the graph) and the reported vertex sets are
translated back to its labels (see :mod:`repro.graph.backend`).

Finally it hides the *execution mode*: ``jobs=None`` (default) runs the
single-process algorithms, while any other value wraps a short-lived
:class:`repro.engine.DCCEngine` session around the call, whose worker
pool greedy's candidate family fans out over (:mod:`repro.parallel`);
bottom-up and top-down run their sequential algorithms in process
either way.  Results are bitwise identical for every ``jobs`` value,
``None`` included; callers issuing many searches over one graph should
hold a ``DCCEngine`` open themselves and amortise the pool across
queries.

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
from repro.graph.backend import check_graph
from repro.utils.errors import ParameterError

_METHODS = ("auto", "greedy", "bottom-up", "top-down")

# The full option vocabulary per method, with defaults.  An engine
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


def _engine_one_shot(graph, d, s, k, method, jobs, options):
    """Route one search through a short-lived :class:`DCCEngine`.

    ``search_dccs(..., jobs=N)`` *is* an engine session of length one:
    the engine freezes the graph, spawns the pool (for greedy), runs the
    search and translates the results, and is closed before returning —
    which is exactly what makes its output bitwise identical to a warm
    engine serving the same query.  Imported lazily: the engine pulls in
    multiprocessing plumbing that purely sequential callers never need.
    """
    from repro.engine import DCCEngine

    with DCCEngine(graph, jobs=jobs) as engine:
        return engine.search(d, s, k, method=method, **options)


def search_dccs(graph, d, s, k, method="auto", jobs=None, **options):
    """Find the top-k diversified d-CCs of ``graph`` on ``s`` layers.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.multilayer.MultiLayerGraph` or an
        already-frozen :class:`~repro.graph.frozen.FrozenMultiLayerGraph`.
        Reported sets are always in the vocabulary of the graph that was
        passed in.
    d:
        Minimum degree inside the reported subgraphs.
    s:
        Minimum support — the number of layers each d-CC must recur on.
    k:
        Number of diversified d-CCs to report.
    method:
        ``"auto"`` (default), ``"greedy"``, ``"bottom-up"`` or
        ``"top-down"``.
    jobs:
        ``None`` (default) runs the single-process algorithms.  Any
        other value routes through a one-query
        :class:`repro.engine.DCCEngine`: greedy's candidate family is
        cut into chunks across one worker process per CPU this process
        may run on for ``0`` (one usable CPU runs them inline, with no
        worker processes), across exactly that many for a positive
        integer; bottom-up and top-down run their sequential algorithms
        in process.  For a fixed ``seed``, results are bitwise
        identical — sets, labels and aggregated counters — for every
        ``jobs`` value, ``None`` included (see
        :mod:`repro.parallel.search`).
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
        return _engine_one_shot(graph, d, s, k, method, jobs, options)
    # The engine path above applies the same checks in the same order.
    # Each algorithm freezes a MultiLayerGraph (cached on the graph, so
    # repeated searches pay it once) and translates its answer, both on
    # the result's clock.
    validate_search_params(graph, d, s, k)
    method = resolve_method(graph.num_layers, method, s, options)
    check_options(method, {name: value for name, value in options.items()
                           if name != "stats"})
    if method == "greedy":
        return gd_dccs(graph, d, s, k, **options)
    if method == "bottom-up":
        return bu_dccs(graph, d, s, k, **options)
    return td_dccs(graph, d, s, k, **options)
