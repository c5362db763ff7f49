"""The graph backend protocol and backend selection policy.

The d-CC search stack in :mod:`repro.core` runs against a *narrow,
duck-typed protocol* rather than against one concrete graph class, so the
readable dict-of-sets reference backend and the flat-array CSR backend
execute the same search code.  Two implementations exist:

* :class:`repro.graph.multilayer.MultiLayerGraph` — mutable dict-of-sets
  adjacency, arbitrary hashable vertices (``is_frozen == False``);
* :class:`repro.graph.frozen.FrozenMultiLayerGraph` — immutable CSR over
  dense integer ids (``is_frozen == True``), built by ``freeze()`` and
  convertible back by ``thaw()``.

Protocol
--------
A backend must provide:

==============================  =========================================
``is_frozen``                   ``True`` for the CSR backend; algorithm
                                modules use it to select flat-array fast
                                paths (never for correctness decisions).
``num_layers`` / ``layers()``   layer count and ``range`` of layer ids.
``num_vertices`` / ``vertices()``  vertex count / a fresh vertex set.
``vertex_set()``                a cached frozenset of all vertices
                                (callers must not mutate it).
``has_vertex(v)`` (+ ``in``)    vertex membership.
``degree(layer, v)``            O(1) degree on one layer.
``neighbors(layer, v)``         set-like iterable of the neighbourhood.
``neighbor_row(layer)``         unchecked per-layer accessor
                                ``row(v) → neighbour sequence`` for
                                bulk cascade loops.
``adjacency(layer)``            ``{v: neighbour set}`` view of one layer
                                (materialised lazily on the CSR backend —
                                a compatibility path for dict-shaped
                                consumers, not a fast path).
``induced_degrees(layer, S)``   bulk ``{v: deg within S}`` — the peeling
                                initialisation primitive; ``S=None``
                                means the whole vertex set.
``layers_of(v)``                layers on which ``v`` is non-isolated.
``num_edges(layer)``            cached per-layer edge count.
``total_edges()``               sum over layers.
``summary()``                   the Fig. 12 statistics dict.
``memory_bytes()``              rough resident-size estimate.
==============================  =========================================

Everything else in the search stack (top-k maintenance, pruning bounds,
layer orderings) operates on plain vertex sets and never touches the
representation.  Representation also never leaks across process
boundaries: the parallel subsystem (:mod:`repro.parallel`) serializes
either backend through an explicit payload
(:mod:`repro.parallel.serialize`) rather than pickling backend objects,
so worker processes rebuild exactly the structure described here.

Selection policy
----------------
:func:`resolve_search_graph` implements the ``backend=`` parameter of
:func:`repro.core.api.search_dccs`: ``"dict"`` and ``"frozen"`` force a
representation, ``"auto"`` freezes when :func:`should_freeze` judges the
O(n + m) freeze cost profitable (a search runs at least one peel per
layer, so mid-sized graphs already amortise it).
"""

from repro.utils.errors import ParameterError

BACKENDS = ("auto", "dict", "frozen")

# Below this vertex count the dict backend's peels are already so cheap
# that the freeze pass plus result translation dominates; measured on the
# stand-in datasets, the crossover sits well under this line.
FREEZE_VERTEX_THRESHOLD = 256


def check_backend(backend):
    """Validate a ``backend=`` argument, returning it unchanged."""
    if backend not in BACKENDS:
        raise ParameterError(
            "backend must be one of {}, got {!r}".format(BACKENDS, backend)
        )
    return backend


def check_graph(graph):
    """Reject anything but a graph backend, returning ``graph`` unchanged.

    Duck-typed like the protocol: ``is_frozen`` and ``num_layers`` must
    exist.  The :class:`ParameterError` names the type received, and an
    object that merely wraps a graph (a
    :class:`~repro.datasets.synthetic.Dataset`) is pointed to its
    ``.graph``.
    """
    if hasattr(graph, "is_frozen") and hasattr(graph, "num_layers"):
        return graph
    hint = ""
    if hasattr(getattr(graph, "graph", None), "num_layers"):
        hint = "; pass its .graph"
    raise ParameterError(
        "expected a multi-layer graph, got {}{}".format(
            type(graph).__name__, hint
        )
    )


def should_freeze(graph):
    """Whether auto mode should pay the O(n + m) freeze for ``graph``."""
    return graph.num_vertices >= FREEZE_VERTEX_THRESHOLD


def resolve_search_graph(graph, backend):
    """Resolve ``backend`` into ``(search_graph, translate_results)``.

    ``translate_results`` is ``True`` when the caller handed us a dict
    graph and we froze it — reported vertex sets must then be translated
    from dense ids back to the caller's labels.  A graph the caller froze
    themselves keeps its own (integer) vocabulary.
    """
    check_backend(backend)
    frozen_input = getattr(graph, "is_frozen", False)
    if backend == "auto":
        backend = "frozen" if frozen_input or should_freeze(graph) else "dict"
    if backend == "frozen":
        if frozen_input:
            return graph, False
        return graph.freeze(), True
    if frozen_input:
        # dict explicitly requested on a frozen graph: the cached,
        # id-keyed thaw — results stay in the input graph's vocabulary
        # and repeated searches pay the conversion once, symmetric with
        # the cached freeze() in the other direction.
        return graph._search_thaw(), False
    return graph, False
