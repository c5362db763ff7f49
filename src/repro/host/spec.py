"""Batch-spec parsing for multi-graph host runs.

The ``repro host`` CLI subcommand (and anything else that wants to
drive a :class:`~repro.host.registry.DCCHost` from a file) describes a
run as one JSON document::

    {
      "graphs": {"quickstart": "figure1", "english": "english"},
      "max_engines": 1,
      "queries": [
        {"graph": "quickstart", "d": 3, "s": 2, "k": 2},
        {"graph": "english", "d": 2, "s": 2, "k": 3},
        {"graph": "quickstart", "d": 2, "s": 2, "k": 2,
         "method": "greedy"}
      ]
    }

``graphs`` maps host-local names to graph *sources* (dataset names,
``figure1``, or graph-file paths — whatever the caller's loader
accepts); ``queries`` is a list of :meth:`DCCHost.search_many` specs,
each naming its graph.  A queries entry may also be a streaming
mutation — ``{"op": "update", "graph": ..., "add": [[layer, u, v],
...], "remove": [...]}`` — applied at its position in the sequence, so
every later query answers against the mutated graph.  Optional top-level settings
(:data:`SETTINGS_KEYS`) feed admission control, the async layer's
backpressure, its cross-time result cache and the peel-kernel tier;
command-line flags override them.  Any *other*
top-level key is rejected by name — a typo like ``"kernal"`` must fail
loudly, not silently configure nothing.
``repro serve`` reuses the same document shape with ``queries``
optional (``require_queries=False``).

:func:`parse_host_spec` only validates shape and cross-references — it
never loads graphs, so it stays importable and testable without any
dataset machinery.
"""

from collections import OrderedDict

from repro.utils.errors import ParameterError

# The recognised top-level settings knobs, in documentation order.
SETTINGS_KEYS = (
    "max_engines",
    "memory_budget_bytes",
    "max_pending",
    "result_cache_entries",
    "result_cache_ttl",
    "kernel",
)

# Top-level keys that are structure, not settings.
_STRUCTURAL_KEYS = ("graphs", "queries")


def _require(condition, message):
    if not condition:
        raise ParameterError(message)


def parse_host_spec(payload, require_queries=True):
    """Validate a host batch-spec document.

    Returns ``(graphs, queries, settings)``: an ordered ``name ->
    source`` mapping, the query list (each a dict that still carries its
    ``"graph"`` key), and a settings dict holding any recognised
    top-level admission-control knobs.  Raises
    :class:`~repro.utils.errors.ParameterError` on any shape problem,
    including a query naming a graph the spec never declares.

    ``require_queries=False`` admits a spec with no ``"queries"`` list —
    the ``repro serve`` shape, where the document only declares graphs
    and settings and the queries arrive later, one JSON line at a time.
    """
    _require(isinstance(payload, dict),
             "host spec must be a JSON object, got {!r}".format(
                 type(payload).__name__))
    accepted = _STRUCTURAL_KEYS + SETTINGS_KEYS
    for key in payload:
        _require(key in accepted,
                 "unknown host-spec key {!r}; accepted keys are "
                 "{}".format(key, ", ".join(accepted)))
    graphs_field = payload.get("graphs")
    _require(isinstance(graphs_field, dict) and graphs_field,
             "host spec needs a non-empty \"graphs\" object mapping "
             "names to graph sources")
    graphs = OrderedDict()
    for name, source in graphs_field.items():
        _require(isinstance(name, str) and name,
                 "graph names must be non-empty strings, got "
                 "{!r}".format(name))
        _require(isinstance(source, str) and source,
                 "graph source for {!r} must be a non-empty string, got "
                 "{!r}".format(name, source))
        graphs[name] = source
    queries_field = payload.get("queries")
    if queries_field is None and not require_queries:
        queries_field = []
    _require(isinstance(queries_field, list) and
             (queries_field or not require_queries),
             "host spec needs a non-empty \"queries\" list")
    queries = []
    for number, entry in enumerate(queries_field, 1):
        _require(isinstance(entry, dict),
                 "query {} is not a JSON object: {!r}".format(number, entry))
        entry = dict(entry)
        name = entry.get("graph")
        _require(isinstance(name, str) and name,
                 "query {} is missing a \"graph\" name".format(number))
        _require(name in graphs,
                 "query {} names graph {!r}, which the spec's \"graphs\" "
                 "object does not declare".format(number, name))
        if entry.get("op") == "update":
            # A streaming mutation riding the query list: applied in
            # sequence position, so later queries see the new graph.
            _require(entry.get("add") or entry.get("remove"),
                     "update {} needs a non-empty \"add\" and/or "
                     "\"remove\" edge list".format(number))
            queries.append(entry)
            continue
        _require(entry.get("op") is None,
                 "query {} has unknown op {!r} (only \"update\" may "
                 "appear in a query list)".format(number, entry.get("op")))
        for key in ("d", "s", "k"):
            _require(key in entry,
                     "query {} is missing required key {!r}".format(
                         number, key))
        queries.append(entry)
    settings = {}
    for key in SETTINGS_KEYS:
        if payload.get(key) is not None:
            settings[key] = payload[key]
    return graphs, queries, settings
