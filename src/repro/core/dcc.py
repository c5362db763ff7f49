"""The d-coherent core (d-CC) of a multi-layer graph (Section II, App. B).

Given a multi-layer graph ``G``, a layer subset ``L`` and a degree threshold
``d``, the d-CC ``C^d_L(G)`` is the unique maximal vertex set ``S`` such
that every vertex of ``S`` has degree at least ``d`` inside ``G_i[S]`` for
every layer ``i`` in ``L``.

:func:`coherent_core` computes it with the numpy cascade peel of
:mod:`repro.graph.kernels` (``np_coherent_core``): whole frontiers of
violating vertices leave at once, reaching the same unique fixed point,
with the same removed-vertex count, as the paper's bin-sort dCC
procedure (Fig. 35).  The property suites hold it to a pure-Python port
of that procedure in ``tests/oracle.py``.  :func:`coherent_core` takes
either graph and answers in its labels; the candidate functions below
it take a frozen graph.

:func:`enumerate_candidates` forms each Lemma 1 intersection bound as an
AND of per-layer core masks, so it reaches :func:`coherent_core` as a
mask, never as a Python set.

``C^d_L`` depends only on the graph, ``L`` and ``d``, so the frozen
graph keeps the d-CC of every layer subset a search peeled over a bound
known to contain it (:func:`kept_coherent_core`): the candidates of
greedy and of the exact solver, the InitTopK seeds, top-down's root and
its RefineC children.  A later peel whose bound contains a kept d-CC
reads it instead, and charges the counters the peel would have.
"""

from itertools import combinations
from numbers import Integral

import numpy as np

from repro.core.dcore import layer_core
from repro.graph.backend import (
    label_ids,
    require_frozen,
    resolve_search_graph,
)
from repro.graph.kernels import as_mask, vertex_count, vertex_mask
from repro.utils.errors import LayerIndexError, ParameterError, check_degree


def _normalize_layers(graph, layers):
    """Validate and deduplicate a layer subset, returning a sorted tuple."""
    layer_tuple = tuple(sorted(set(layers)))
    if not layer_tuple:
        raise ParameterError("the layer subset L must be non-empty")
    for layer in layer_tuple:
        if not 0 <= layer < graph.num_layers:
            raise LayerIndexError(layer, graph.num_layers)
    return layer_tuple


def validate_search_params(graph, d, s, k):
    """Validate a DCCS ``(d, s, k)`` triple against ``graph``.

    The shared entry check of every search implementation — the three
    sequential algorithms and the parallel orchestrators all enforce the
    same contract, so it lives once, here with the core primitives.
    Each of ``d``, ``s`` and ``k`` must be an integer
    (:class:`numbers.Integral`, numpy integers included); a bool or a
    float is rejected even when it is integral-valued.  ``d`` goes
    through :func:`~repro.utils.errors.check_degree`, the check every
    core primitive shares.
    """
    check_degree(d)
    for name, value in (("s", s), ("k", k)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ParameterError(
                "{} must be an integer, got {!r}".format(name, value)
            )
    if not 1 <= s <= graph.num_layers:
        raise ParameterError(
            "s must be in [1, {}], got {}".format(graph.num_layers, s)
        )
    if k < 1:
        raise ParameterError("k must be positive, got {}".format(k))


def coherent_core(graph, layers, d, within=None, stats=None):
    """Compute ``C^d_L(G)`` by cascade peeling; returns a :class:`frozenset`.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.multilayer.MultiLayerGraph`, which is
        frozen and answered in its labels, or a frozen graph.
    layers:
        The layer subset ``L`` (iterable of layer indices).
    d:
        The minimum-degree threshold.
    within:
        Optional vertex subset to restrict the computation to (callers pass
        the Lemma 1 intersection bound here, so the d-CC is found on the
        small induced subgraph instead of on all of ``G``).  An iterable
        of vertices, or on a frozen graph a vertex mask: a length-``n``
        bool ndarray naming the vertices where it is True.  A mask of
        another length, or with a ``MultiLayerGraph``, raises
        :class:`ParameterError`.
    stats:
        Optional :class:`~repro.core.stats.SearchStats` to increment.

    Complexity is ``O((n' + m') |L|)`` where ``n'``/``m'`` count the
    restricted subgraph, matching the paper's Appendix B analysis.
    """
    layer_tuple = _normalize_layers(graph, layers)
    check_degree(d)
    graph, translate = resolve_search_graph(graph)
    if translate:
        within = label_ids(graph, within)
    else:
        # A bad mask fails here, before any counter moves.
        vertex_mask(graph, within)
    if stats is not None:
        stats.dcc_calls += 1
    # Looked up at call time, so tracers can wrap the kernel.
    from repro.graph.kernels import np_coherent_core

    core = np_coherent_core(graph, layer_tuple, d, within=within,
                            stats=stats)
    return graph.labels_for(core) if translate else core


def kept_coherent_core(graph, layers, d, bound, stats=None, keep=True,
                       as_ids=False):
    """``C^d_L`` of a frozen graph inside ``bound``, read from or kept in
    the graph's memo.

    ``layers`` is a sorted tuple of layer ids and ``bound`` a vertex
    mask or a frozenset of ids.  With ``keep`` the caller knows that
    ``bound`` contains ``C^d_L`` of the whole graph: every Lemma 1 bound
    over the cores (and alive set) of a vertex-deletion fixed point at
    this ``d`` and an ``s <= |L|`` does, and so does every smaller
    bound a sound pruning rule derives from it.  The peel then finds
    that d-CC, and the graph keeps its ascending ids per ``(layers, d)``
    (:meth:`~repro.graph.frozen.LayerCoreMemo.keep_subset_core`);
    ``d = 0`` is never kept.

    A kept d-CC is used whenever it lies inside ``bound``, ``keep`` or
    not, since the peel over a bound that contains ``C^d_L`` finds
    ``C^d_L``.  A use charges what that peel would: one ``dcc_calls``
    and ``|bound| - |C^d_L|`` ``peel_operations``.  It returns the
    frozenset the peel would build: from the ids in ascending order for
    a mask, in the bound's own iteration order for a frozenset (which
    decides :class:`~repro.core.coverage.DiversifiedTopK`'s
    tie-breaks).  With ``as_ids`` and a mask bound it returns the
    ascending ids instead, a read-only int32 array.
    """
    check_degree(d)
    # A mask of the wrong shape fails here, before any counter moves.
    mask = vertex_mask(graph, bound)
    memo = graph.core_memo
    key = (layers, d)
    kept = memo.subset_core(key) if d else None
    if kept is not None:
        if mask is not None:
            if mask[kept].all():
                _replay_peel(stats, vertex_count(mask), kept.size)
                return kept if as_ids else frozenset(kept.tolist())
        else:
            members = np.fromiter(bound, dtype=np.int64, count=len(bound))
            inside = np.isin(members, kept, assume_unique=True)
            if np.count_nonzero(inside) == kept.size:
                _replay_peel(stats, members.size, kept.size)
                return frozenset(members[inside].tolist())
    core = coherent_core(graph, layers, d, within=bound, stats=stats)
    if not (as_ids or keep and d):
        return core
    ids = np.fromiter(core, dtype=np.int32, count=len(core))
    ids.sort()
    ids.flags.writeable = False
    if keep and d:
        memo.keep_subset_core(key, ids, graph.csr_nbytes())
    return ids if as_ids else core


def _replay_peel(stats, bound_size, core_size):
    """Charge what a peel of a ``bound_size`` bound down to a
    ``core_size`` d-CC charges."""
    if stats is not None:
        stats.dcc_calls += 1
        stats.peel_operations += bound_size - core_size


def is_coherent_dense(graph, vertices, layers, d):
    """Whether ``G[vertices]`` is d-dense w.r.t. ``layers`` (definition check).

    Used pervasively in tests: every set an algorithm reports must pass this
    predicate, and adding any outside vertex must break it (maximality).
    """
    layer_tuple = _normalize_layers(graph, layers)
    requested = set(vertices)
    members = {v for v in requested if graph.has_vertex(v)}
    if len(members) != len(requested):
        return False
    for layer in layer_tuple:
        degrees = graph.induced_degrees(layer, members)
        for v in members:
            if degrees.get(v, 0) < d:
                return False
    return True


def per_layer_cores(graph, d, within=None, stats=None):
    """``C^d(G_i)`` for every layer ``i`` of a frozen graph, as sets.

    By definition ``C^d_{{i}}(G) = C^d(G_i)``; these single-layer cores seed
    both search algorithms and the Lemma 1 intersection bound.
    """
    require_frozen(graph)
    cores = []
    for layer in graph.layers():
        if stats is not None:
            stats.dcc_calls += 1
        cores.append(layer_core(graph, layer, d, within=within))
    return cores


def subset_bound(cores, layer_subset):
    """The Lemma 1 intersection bound ``∩_{i in L} C^d(G_i)``.

    The AND of the subset's core masks (for a single layer, that
    layer's own mask: callers must not write to it).
    """
    bound = cores[layer_subset[0]]
    for layer in layer_subset[1:]:
        bound = bound & cores[layer]
    return bound


def candidate_for_subset(graph, d, layer_subset, cores, within=None,
                         stats=None, as_ids=False):
    """``C^d_L(G)`` for one layer subset via the Lemma 1 bound.

    The per-subset body of :func:`enumerate_candidates`, exposed so the
    parallel subsystem's greedy shards do byte-for-byte the same work
    (same bound, same restricted peel, same counter increments) as the
    sequential enumeration they partition.  ``graph`` is frozen;
    ``cores`` and ``within`` are vertex masks.  The cores must hold
    every d-CC of a layer subset of size ``|L|`` (the full-graph cores,
    or those of a vertex-deletion fixed point at this ``d`` and an
    ``s <= |L|``), so without ``within`` the bound contains ``C^d_L``
    and the graph keeps it (:func:`kept_coherent_core`).  With
    ``as_ids`` the d-CC comes as its ascending ids, a read-only int32
    array.
    """
    require_frozen(graph)
    bound = subset_bound(cores, layer_subset)
    if within is not None:
        bound = bound & within
    if bound.any():
        return kept_coherent_core(graph, layer_subset, d, bound,
                                  stats=stats, keep=within is None,
                                  as_ids=as_ids)
    # Lemma 1: empty intersection bound, hence empty d-CC.
    return _EMPTY_IDS if as_ids else frozenset()


_EMPTY_IDS = np.zeros(0, dtype=np.int32)
_EMPTY_IDS.flags.writeable = False


def enumerate_candidates(graph, d, s, within=None, cores=None, stats=None,
                         as_ids=False):
    """Yield ``(L, C^d_L(G))`` for every layer subset of size ``s``.

    This materialises the candidate family ``F_{d,s}(G)`` of a frozen
    graph, used by the greedy algorithm and the exact solver.  ``cores``
    may carry precomputed per-layer d-cores to share work across calls
    (the core masks of a :class:`~repro.core.preprocess.PreprocessResult`,
    or sets of ids; see :func:`candidate_for_subset` for what they must
    hold); ``within`` is a mask or a collection of ids.  With
    ``as_ids`` each d-CC comes as its ascending ids, a read-only int32
    array.
    """
    require_frozen(graph)
    if not 1 <= s <= graph.num_layers:
        raise ParameterError(
            "s must be in [1, {}], got {}".format(graph.num_layers, s)
        )
    if cores is None:
        cores = per_layer_cores(graph, d, within=within, stats=stats)
    cores = [as_mask(graph, core) for core in cores]
    if within is not None:
        within = as_mask(graph, within)
    for layer_subset in combinations(range(graph.num_layers), s):
        yield layer_subset, candidate_for_subset(
            graph, d, layer_subset, cores, within=within, stats=stats,
            as_ids=as_ids,
        )
