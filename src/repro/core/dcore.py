"""Single-layer d-core computation (Batagelj & Zaversnik, reference [3]).

Three entry points:

* :func:`layer_core` — the backend-dispatching form: the d-core of one
  layer of a multi-layer graph, routed to the CSR kernel when the graph
  is frozen and to :func:`d_core` otherwise.  New code should call this.
* :func:`d_core` — the dict-backend peel: the maximal vertex set whose
  induced subgraph has minimum degree ``>= d``, computed by cascade
  peeling in ``O(n + m)`` over a raw adjacency dict
  ``{vertex: set(neighbours)}`` (what :meth:`MultiLayerGraph.adjacency`
  returns), optionally restricted to a vertex subset;
* :func:`core_decomposition` — the full core number of every vertex (the
  classic O(m) bin-sort algorithm), used by tests and by layer-ordering
  heuristics.  :func:`layer_core_decomposition` is its
  backend-dispatching form: on a frozen graph with the numpy kernel
  tier active it routes the membership/degree bookkeeping to the
  vectorised ascending-threshold cascade
  (:func:`repro.graph.kernels.np_core_decomposition`), identical
  result, flat-array cost.
"""

from repro.utils.errors import check_degree


def layer_core(graph, layer, d, within=None):
    """The d-core of ``graph``'s ``layer`` through the backend protocol.

    Dispatches to the flat-array kernel for a frozen (CSR) graph and to
    the dict peel otherwise; both return the same set (of the graph's own
    vertex vocabulary).
    """
    check_degree(d)
    if graph.is_frozen:
        from repro.graph.frozen import frozen_layer_core

        return frozen_layer_core(graph, layer, d, within=within)
    return d_core(graph.adjacency(layer), d, within=within)


def d_core(adjacency, d, within=None):
    """The d-core of a single-layer graph as a :class:`set`.

    Parameters
    ----------
    adjacency:
        ``{vertex: set(neighbours)}`` for the layer.
    d:
        Minimum-degree threshold, ``d >= 0``.
    within:
        Optional vertex subset; the core is then computed on the induced
        subgraph, without copying it.

    The 0-core is the whole (restricted) vertex set.  Peeling repeatedly
    deletes any vertex whose remaining degree drops below ``d``; a FIFO of
    violating vertices makes each edge be touched O(1) times.
    """
    check_degree(d)
    if within is None:
        alive = set(adjacency)
        degree = {v: len(neighbors) for v, neighbors in adjacency.items()}
    else:
        alive = set(within) & set(adjacency)
        degree = {v: len(adjacency[v] & alive) for v in alive}
    if d == 0:
        return alive
    queue = [v for v, deg in degree.items() if deg < d]
    in_queue = set(queue)
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        alive.discard(v)
        for u in adjacency[v]:
            if u in alive and u not in in_queue:
                degree[u] -= 1
                if degree[u] < d:
                    queue.append(u)
                    in_queue.add(u)
    return alive


def core_decomposition(adjacency, within=None):
    """Core numbers of every vertex via the O(m) bin-sort algorithm.

    Returns ``{vertex: core_number}``.  The implementation is the classic
    Batagelj–Zaversnik array scheme with ``bin``, ``ver`` (actually named
    ``order`` here) and ``pos`` arrays — the same bookkeeping the paper's
    Appendix B dCC procedure (Fig. 35) generalises to multiple layers.
    """
    if within is None:
        vertices = list(adjacency)
        member = set(vertices)
    else:
        member = set(within) & set(adjacency)
        vertices = list(member)
    if not vertices:
        return {}
    degree = {v: len(adjacency[v] & member) if within is not None else len(adjacency[v])
              for v in vertices}
    max_degree = max(degree.values())

    # bin[i] = index in `order` of the first vertex with current degree i.
    counts = [0] * (max_degree + 1)
    for v in vertices:
        counts[degree[v]] += 1
    bins = [0] * (max_degree + 2)
    start = 0
    for deg in range(max_degree + 1):
        bins[deg] = start
        start += counts[deg]
    order = [None] * len(vertices)
    pos = {}
    fill = list(bins[: max_degree + 1])
    for v in vertices:
        pos[v] = fill[degree[v]]
        order[pos[v]] = v
        fill[degree[v]] += 1

    core = dict(degree)
    for i in range(len(order)):
        v = order[i]
        for u in adjacency[v]:
            if u not in member:
                continue
            if core[u] > core[v]:
                # Move u one bin down: swap it with the first vertex of its
                # current bin, then advance that bin's start.
                deg_u = core[u]
                first_pos = bins[deg_u]
                first_vertex = order[first_pos]
                if first_vertex != u:
                    order[pos[u]], order[first_pos] = first_vertex, u
                    pos[first_vertex], pos[u] = pos[u], first_pos
                bins[deg_u] += 1
                core[u] -= 1
    return core


def layer_core_decomposition(graph, layer, within=None):
    """Core numbers of one layer through the backend protocol.

    Equal, key for key, to ``core_decomposition(graph.adjacency(layer),
    within)`` on every backend; a frozen graph running the numpy kernel
    tier skips the adjacency-dict materialisation entirely and peels
    thresholds over the CSR arrays instead.
    """
    if graph.is_frozen and graph.kernel == "numpy":
        from repro.graph.kernels import np_core_decomposition

        graph._check_layer(layer)
        return np_core_decomposition(graph, layer, within=within)
    return core_decomposition(graph.adjacency(layer), within=within)


def core_sizes_by_threshold(adjacency, within=None):
    """``{d: |d-core|}`` for every achievable d, from one decomposition.

    The size of the d-core equals the number of vertices with core number
    ``>= d``; this helper materialises that histogram, which the layer
    sorting preprocessing (Section IV-C) consults repeatedly.
    """
    return _core_size_histogram(
        core_decomposition(adjacency, within=within)
    )


def layer_core_sizes(graph, layer, within=None):
    """``{d: |d-core|}`` of one layer through the backend protocol."""
    return _core_size_histogram(
        layer_core_decomposition(graph, layer, within=within)
    )


def _core_size_histogram(core):
    if not core:
        return {0: 0}
    max_core = max(core.values())
    sizes = {}
    count_at = [0] * (max_core + 2)
    for value in core.values():
        count_at[value] += 1
    running = 0
    for d in range(max_core, -1, -1):
        running += count_at[d]
        sizes[d] = running
    return sizes
