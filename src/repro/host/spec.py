"""Request and batch-spec parsing: the one reader of every search spec.

:func:`parse_request` reads one request entry — a JSON object from a
socket or stdio line, an async batch, a ``repro host`` spec file or a
``repro batch`` file — into a :class:`SearchRequest` or an
:class:`UpdateRequest`.  Every entry path calls it, so a malformed
entry raises the same :class:`~repro.utils.errors.ProtocolError`, naming
the same key or op, wherever it enters.  It checks shape only; the
values of ``d``, ``s``, ``k``, ``method`` and the options are validated
by the search itself, as on the direct library path.

The ``repro host`` CLI subcommand (and anything else that wants to
drive a host from a file) describes a run as one JSON document::

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
accepts); ``queries`` is a list of request entries, each naming its
graph.  A queries entry may also be a streaming mutation —
``{"op": "update", "graph": ..., "add": [[layer, u, v], ...],
"remove": [...]}`` — applied at its position in the sequence, so every
later query answers against the mutated graph.  Optional top-level
settings (:data:`SETTINGS_KEYS`) feed admission control, the async
layer's backpressure and its cross-time result cache; command-line
flags override them.  Any *other* top-level key is rejected by name — a
typo like ``"max_engine"`` must fail loudly, not silently configure
nothing.  ``repro serve`` reuses the same document shape with
``queries`` optional (``require_queries=False``).

:func:`parse_host_spec` only validates shape and cross-references — it
never loads graphs, so it stays importable and testable without any
dataset machinery.
"""

from collections import OrderedDict, namedtuple

from repro.utils.errors import ParameterError, ProtocolError

# The recognised top-level settings knobs, in documentation order.
SETTINGS_KEYS = (
    "max_engines",
    "memory_budget_bytes",
    "max_pending",
    "result_cache_entries",
    "result_cache_ttl",
)

# Top-level keys that are structure, not settings.
_STRUCTURAL_KEYS = ("graphs", "queries")

# A search: ``options`` holds every key besides the six named ones.
SearchRequest = namedtuple("SearchRequest", "graph d s k method options")

# A batched edge mutation: ``add`` and ``remove`` are tuples of
# ``(layer, u, v)`` edges, at least one edge between them.
UpdateRequest = namedtuple("UpdateRequest", "graph add remove")


def _require(condition, message):
    if not condition:
        raise ParameterError(message)


def _edges(entry, field):
    """The ``add``/``remove`` edge list of an update, as tuples."""
    edges = entry.get(field) or ()
    if not isinstance(edges, (list, tuple)):
        raise ProtocolError(
            "update {!r} must be a list of [layer, u, v] triples, got "
            "{!r}".format(field, edges)
        )
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            raise ProtocolError(
                "update {!r} entries must be [layer, u, v] triples, got "
                "{!r}".format(field, edge)
            )
    return tuple(tuple(edge) for edge in edges)


def parse_request(entry):
    """One request entry, checked for shape; a search or an update.

    Returns a :class:`SearchRequest` for an entry without ``"op"`` and
    an :class:`UpdateRequest` for ``{"op": "update", ...}``.  Raises
    :class:`~repro.utils.errors.ProtocolError` when ``entry`` is not a
    JSON object (a dict), names an unknown op, lacks a ``"graph"`` name
    or, for a search, any of ``d``, ``s`` and ``k``; or when an update
    edge is not a ``[layer, u, v]`` list or the update has no edges.
    ``entry`` itself is left unchanged.
    """
    if not isinstance(entry, dict):
        raise ProtocolError(
            "a request must be a JSON object, got {!r}".format(
                type(entry).__name__)
        )
    if "op" in entry and entry["op"] != "update":
        raise ProtocolError(
            "unknown op {!r} (a request is a search, an \"update\" op, "
            "or on the serving protocol a \"stats\" op)".format(entry["op"])
        )
    name = entry.get("graph")
    if not isinstance(name, str) or not name:
        raise ProtocolError(
            "a request needs a \"graph\" key naming an attached graph, "
            "got {!r}".format(name)
        )
    if "op" in entry:
        add, remove = _edges(entry, "add"), _edges(entry, "remove")
        if not add and not remove:
            raise ProtocolError(
                "an update needs a non-empty \"add\" and/or \"remove\" "
                "edge list"
            )
        return UpdateRequest(name, add, remove)
    for key in ("d", "s", "k"):
        if key not in entry:
            raise ProtocolError(
                "a search is missing required key {!r}".format(key)
            )
    options = dict(entry)
    del options["graph"]
    d, s, k = options.pop("d"), options.pop("s"), options.pop("k")
    method = options.pop("method", "auto")
    return SearchRequest(name, d, s, k, method, options)


def parse_requests(entries):
    """:func:`parse_request` over a list; a fault names its position."""
    requests = []
    for number, entry in enumerate(entries, 1):
        try:
            requests.append(parse_request(entry))
        except ProtocolError as error:
            raise ProtocolError("query {}: {}".format(number, error)) \
                from None
    return requests


def parse_host_spec(payload, require_queries=True):
    """Validate a host batch-spec document.

    Returns ``(graphs, queries, settings)``: an ordered ``name ->
    source`` mapping, the query list (each a dict that still carries its
    ``"graph"`` key), and a settings dict holding any recognised
    top-level admission-control knobs.  Raises
    :class:`~repro.utils.errors.ParameterError` on any shape problem —
    a :class:`~repro.utils.errors.ProtocolError`, from
    :func:`parse_request`, for a malformed query — including a query
    naming a graph the spec never declares.

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
    queries = payload.get("queries")
    if queries is None and not require_queries:
        queries = []
    _require(isinstance(queries, list) and
             (queries or not require_queries),
             "host spec needs a non-empty \"queries\" list")
    for number, request in enumerate(parse_requests(queries), 1):
        _require(request.graph in graphs,
                 "query {} names graph {!r}, which the spec's \"graphs\" "
                 "object does not declare".format(number, request.graph))
    settings = {}
    for key in SETTINGS_KEYS:
        if payload.get(key) is not None:
            settings[key] = payload[key]
    return graphs, [dict(entry) for entry in queries], settings
