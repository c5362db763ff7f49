"""The graph protocol and the freeze-and-translate boundary.

Every search runs on one representation, the frozen CSR
(:class:`repro.graph.frozen.FrozenMultiLayerGraph`).  The mutable
:class:`repro.graph.multilayer.MultiLayerGraph` is the builder, the
delta log and the graph API that the baselines, metrics and analysis
read; a search handed one freezes it (``freeze()`` is cached, and
patched after small deltas) and answers in its labels.

Protocol
--------
Both graph classes provide:

==============================  =========================================
``is_frozen``                   ``True`` for the CSR graph; the boundary
                                below freezes anything else.
``num_layers`` / ``layers()``   layer count and ``range`` of layer ids.
``num_vertices`` / ``vertices()``  vertex count / a fresh vertex set.
``vertex_set()``                a cached frozenset of all vertices
                                (callers must not mutate it).
``has_vertex(v)`` (+ ``in``)    vertex membership.
``degree(layer, v)``            O(1) degree on one layer.
``neighbors(layer, v)``         set-like iterable of the neighbourhood.
``adjacency(layer)``            ``{v: neighbour set}`` view of one layer
                                (materialised lazily on the CSR graph —
                                a compatibility path for dict-shaped
                                consumers, not a fast path).
``induced_degrees(layer, S)``   bulk ``{v: deg within S}``; ``S=None``
                                means the whole vertex set.
``layers_of(v)``                layers on which ``v`` is non-isolated.
``num_edges(layer)``            cached per-layer edge count.
``total_edges()``               sum over layers.
``summary()``                   the Fig. 12 statistics dict.
``memory_bytes()``              rough resident-size estimate.
==============================  =========================================

The boundary
------------
:func:`resolve_search_graph` is the one freeze-and-translate step.  The
entry points that take either graph — the searches, ``exact_dccs``, the
engine (and through it the hosts, the server and the CLI) and the public
peels — call it, translate a ``within`` given in labels with
:func:`label_ids`, and hand their answer back through the frozen
graph's ``labels_for`` (:func:`translate_result` for a
:class:`~repro.core.result.DCCSResult`).  Everything below them takes a
frozen graph and calls :func:`require_frozen`.
"""

import functools

from repro.graph.kernels import is_mask
from repro.utils.errors import ParameterError, VertexError
from repro.utils.timer import Timer


def check_graph(graph):
    """Reject anything but a multi-layer graph, returning it unchanged.

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


def require_frozen(graph):
    """Reject anything but a frozen graph, returning ``graph`` unchanged.

    The check of every function below the boundary, so a
    :class:`MultiLayerGraph` fails with a :class:`ParameterError` that
    names ``freeze()`` instead of an ``AttributeError`` from deep inside.
    """
    if getattr(graph, "is_frozen", False) is True:
        return graph
    check_graph(graph)
    raise ParameterError(
        "this function runs on a frozen graph; call graph.freeze() first "
        "(got a {})".format(type(graph).__name__)
    )


def resolve_search_graph(graph):
    """``(search_graph, translate)`` for a search on ``graph``.

    A frozen graph is returned unchanged and keeps its own (integer)
    vocabulary.  Any other graph is frozen (``freeze()`` caches its
    result), and ``translate`` is ``True``: reported vertex sets must
    then be translated from dense ids back to the caller's labels.
    """
    check_graph(graph)
    if graph.is_frozen:
        return graph, False
    return graph.freeze(), True


def label_ids(frozen, within):
    """``within``, in the labels ``frozen`` was frozen from, as dense ids.

    Labels the graph does not have are dropped, as a search drops
    vertices outside the graph.  A vertex mask only has a meaning over
    dense ids, so one given in labels raises :class:`ParameterError`.
    """
    if within is None:
        return None
    if is_mask(within):
        raise ParameterError(
            "a boolean vertex mask needs a frozen graph; got one for a "
            "MultiLayerGraph"
        )
    ids = []
    for label in within:
        try:
            ids.append(frozen.id_of(label))
        except VertexError:
            pass
    return ids


def answers_in_labels(search):
    """Make ``search(graph, ...)`` take either graph and answer in its labels.

    The decorated search runs on :func:`resolve_search_graph`'s frozen
    graph; the freeze and the translation are charged to the result's
    ``elapsed``.
    """
    @functools.wraps(search)
    def boundary(graph, *args, **kwargs):
        with Timer() as overhead:
            search_graph, translate = resolve_search_graph(graph)
        result = search(search_graph, *args, **kwargs)
        return translate_result(search_graph, translate, result,
                                overhead.elapsed)

    return boundary


def translate_result(search_graph, translate, result, overhead=0.0):
    """``result`` in the caller's labels, with ``overhead`` on its clock.

    ``overhead`` is what resolving the search graph cost.  The
    translation is timed too: reported timings must not get faster by
    moving work outside the clock.
    """
    result.elapsed += overhead
    if translate:
        with Timer() as translation:
            result.sets = [search_graph.labels_for(members)
                           for members in result.sets]
        result.elapsed += translation.elapsed
    return result
