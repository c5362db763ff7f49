"""The d-coherent core (d-CC) of a multi-layer graph (Section II, App. B).

Given a multi-layer graph ``G``, a layer subset ``L`` and a degree threshold
``d``, the d-CC ``C^d_L(G)`` is the unique maximal vertex set ``S`` such
that every vertex of ``S`` has degree at least ``d`` inside ``G_i[S]`` for
every layer ``i`` in ``L``.

Two equivalent implementations are provided:

* :func:`coherent_core` — cascade peeling with a FIFO of violating
  vertices; the fastest in CPython and the default everywhere;
* :func:`coherent_core_binsort` — a faithful port of the paper's dCC
  procedure (Fig. 35), which buckets vertices by
  ``m(v) = min_{i in L} deg_i(v)`` and peels in ascending ``m(v)`` order.

Property-based tests assert the two always agree; the bin-sort variant also
doubles as the reference for the RefineC correctness tests.

Both entry points run on either graph backend (see
:mod:`repro.graph.backend`): :func:`coherent_core` dispatches to the
flat-array kernel of :mod:`repro.graph.frozen` when the graph is frozen,
and :func:`coherent_core_binsort` is written against the protocol
(``induced_degrees`` + ``neighbors``) directly.

:func:`enumerate_candidates` forms each Lemma 1 intersection bound in the
form its per-layer cores come in.  On the numpy kernel tier,
preprocessing hands over the cores as vertex masks, so every bound is an
AND of masks and reaches :func:`coherent_core` as a mask, never as a
Python set.  Set cores on a frozen graph (the python tier) are grouped by
bitmask layer signature, which yields every bound in one pass over the
vertices; the dict backend intersects sets.
"""

from itertools import combinations
from numbers import Integral

from repro.core.dcore import layer_core
from repro.graph.kernels import is_mask, vertex_mask
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
        A :class:`~repro.graph.multilayer.MultiLayerGraph`.
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
        another length, or on another backend, raises
        :class:`ParameterError`.
    stats:
        Optional :class:`~repro.core.stats.SearchStats` to increment.

    Complexity is ``O((n' + m') |L|)`` where ``n'``/``m'`` count the
    restricted subgraph, matching the paper's Appendix B analysis.
    """
    layer_tuple = _normalize_layers(graph, layers)
    check_degree(d)
    # A bad mask fails here on every backend, before any counter moves.
    vertex_mask(graph, within)
    if stats is not None:
        stats.dcc_calls += 1
    if graph.is_frozen:
        from repro.graph.frozen import frozen_coherent_core

        return frozen_coherent_core(
            graph, layer_tuple, d, within=within, stats=stats
        )
    adjacencies = [graph.adjacency(layer) for layer in layer_tuple]
    if within is None:
        alive = graph.vertices()
    else:
        alive = set(within) & graph.vertex_set()
    if d == 0:
        return frozenset(alive)

    degrees = []
    for adjacency in adjacencies:
        degrees.append({v: len(adjacency[v] & alive) for v in alive})

    queue = []
    queued = set()
    for v in alive:
        for degree in degrees:
            if degree[v] < d:
                queue.append(v)
                queued.add(v)
                break
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        alive.discard(v)
        if stats is not None:
            stats.peel_operations += 1
        for adjacency, degree in zip(adjacencies, degrees):
            for u in adjacency[v]:
                if u in alive and u not in queued:
                    degree[u] -= 1
                    if degree[u] < d:
                        queue.append(u)
                        queued.add(u)
    return frozenset(alive)


def coherent_core_binsort(graph, layers, d, within=None, stats=None):
    """The paper's dCC procedure (Fig. 35): bucket peeling by ``m(v)``.

    Vertices are kept in buckets indexed by
    ``m(v) = min_{i in L} d_{G_i}(v)`` (within the alive set); each round
    removes a vertex of minimum ``m`` while ``m(v) < d``.  Removing one
    vertex decreases each neighbour's ``m`` by at most one, so bucket moves
    are O(1) amortised and the whole procedure runs in ``O((n + m) |L|)``.

    Functionally identical to :func:`coherent_core`; retained because it is
    the textual algorithm of Appendix B and anchors the equivalence tests.
    Written against the backend protocol (``induced_degrees`` +
    ``neighbors``), so it runs unchanged on both backends.
    """
    layer_tuple = _normalize_layers(graph, layers)
    check_degree(d)
    if stats is not None:
        stats.dcc_calls += 1
    if within is None:
        alive = graph.vertices()
    else:
        alive = {v for v in set(within) if graph.has_vertex(v)}
    if d == 0 or not alive:
        return frozenset(alive)

    degrees = [
        graph.induced_degrees(layer, alive) for layer in layer_tuple
    ]
    m_value = {v: min(degree[v] for degree in degrees) for v in alive}

    buckets = {}
    for v, m in m_value.items():
        buckets.setdefault(m, set()).add(v)
    floor = min(buckets)

    while alive:
        while floor not in buckets or not buckets[floor]:
            buckets.pop(floor, None)
            floor += 1
            if floor > max(buckets, default=-1):
                return frozenset(alive)
        if floor >= d:
            break
        v = buckets[floor].pop()
        alive.discard(v)
        del m_value[v]
        if stats is not None:
            stats.peel_operations += 1
        touched = set()
        for layer, degree in zip(layer_tuple, degrees):
            for u in graph.neighbors(layer, v):
                if u in alive:
                    degree[u] -= 1
                    touched.add(u)
        for u in touched:
            new_m = min(degree[u] for degree in degrees)
            if new_m != m_value[u]:
                buckets[m_value[u]].discard(u)
                buckets.setdefault(new_m, set()).add(u)
                if new_m < floor:
                    floor = new_m
                m_value[u] = new_m
    return frozenset(alive)


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
    """``C^d(G_i)`` for every layer ``i`` as a list of sets.

    By definition ``C^d_{{i}}(G) = C^d(G_i)``; these single-layer cores seed
    both search algorithms and the Lemma 1 intersection bound.
    """
    cores = []
    for layer in graph.layers():
        if stats is not None:
            stats.dcc_calls += 1
        cores.append(layer_core(graph, layer, d, within=within))
    return cores


def layer_signature_groups(cores):
    """Group vertices by the bitmask of the d-cores containing them.

    ``cores[i]`` contributes bit ``i``; the returned list holds
    ``(mask, vertices)`` pairs.  The Lemma 1 bound for a layer subset with
    mask ``m`` is then the union of the groups whose mask contains ``m`` —
    one pass over at most ``n`` signature groups per subset, instead of
    ``s`` set intersections over full cores.
    """
    signature = {}
    for i, core in enumerate(cores):
        bit = 1 << i
        for v in core:
            signature[v] = signature.get(v, 0) | bit
    groups = {}
    for v, mask in signature.items():
        groups.setdefault(mask, []).append(v)
    return list(groups.items())


def subset_bound(cores, layer_subset, groups=None):
    """The Lemma 1 intersection bound ``∩_{i in L} C^d(G_i)``.

    Mask cores give a mask, the AND of the subset's core masks (for a
    single layer, that layer's own mask: callers must not write to it).
    Set cores give a fresh set: with ``groups`` (from
    :func:`layer_signature_groups`) it is assembled in one sweep over the
    signature groups, otherwise it is the plain running intersection of
    the per-layer cores with an early exit on empty.
    """
    if groups is not None:
        want = 0
        for layer in layer_subset:
            want |= 1 << layer
        bound = set()
        for mask, members in groups:
            if mask & want == want:
                bound.update(members)
        return bound
    bound = cores[layer_subset[0]]
    if is_mask(bound):
        for layer in layer_subset[1:]:
            bound = bound & cores[layer]
        return bound
    bound = set(bound)
    for layer in layer_subset[1:]:
        bound &= cores[layer]
        if not bound:
            break
    return bound


def bound_groups(graph, cores):
    """The signature groups :func:`subset_bound` sweeps, or ``None``.

    Only set cores on a frozen graph are grouped; mask cores are ANDed
    and dict-backend cores intersected directly.  The sequential
    enumeration and the parallel greedy shards both decide here, so they
    form every bound the same way.
    """
    if graph.is_frozen and not is_mask(cores[0]):
        return layer_signature_groups(cores)
    return None


def candidate_for_subset(graph, d, layer_subset, cores, groups=None,
                         within=None, stats=None):
    """``C^d_L(G)`` for one layer subset via the Lemma 1 bound.

    The per-subset body of :func:`enumerate_candidates`, exposed so the
    parallel subsystem's greedy shards do byte-for-byte the same work
    (same bound, same restricted peel, same counter increments) as the
    sequential enumeration they partition.  ``within`` is in the form of
    ``cores``: a mask with mask cores, a set with set cores.
    """
    bound = subset_bound(cores, layer_subset, groups)
    if within is not None:
        bound = bound & within
    if bound.any() if is_mask(bound) else bound:
        return coherent_core(graph, layer_subset, d, within=bound,
                             stats=stats)
    # Lemma 1: empty intersection bound, hence empty d-CC.
    return frozenset()


def enumerate_candidates(graph, d, s, within=None, cores=None, stats=None):
    """Yield ``(L, C^d_L(G))`` for every layer subset of size ``s``.

    This materialises the candidate family ``F_{d,s}(G)`` used by the
    greedy algorithm and the exact solver.  ``cores`` may carry
    precomputed per-layer d-cores to share work across calls: sets, or
    on a frozen graph the core masks of a numpy-tier
    :class:`~repro.core.preprocess.PreprocessResult`, in which case
    ``within`` (if given) must be a mask as well.
    """
    if not 1 <= s <= graph.num_layers:
        raise ParameterError(
            "s must be in [1, {}], got {}".format(graph.num_layers, s)
        )
    if cores is None:
        cores = per_layer_cores(graph, d, within=within, stats=stats)
    if within is not None and not is_mask(within):
        within = set(within)
    groups = bound_groups(graph, cores)
    for layer_subset in combinations(range(graph.num_layers), s):
        yield layer_subset, candidate_for_subset(
            graph, d, layer_subset, cores, groups=groups,
            within=within, stats=stats,
        )
