"""The peel kernels: array-native passes over the frozen CSR arrays.

The frozen backend (:mod:`repro.graph.frozen`) runs its hot primitives
— induced degrees, the single-layer d-core peel, the multi-layer
coherent-core fixed point and the full core decomposition — as the
gather/scatter kernels of this module: vectorised *rounds* over int32
views of the CSR ``indptr``/``indices`` buffers (boolean alive masks,
``np.add.at`` / ``bincount`` degree scatters, frontier queues as index
arrays).

A round *pushes*: it gathers the frontier's rows and decrements the
live neighbours' degrees.  A layer's d-core over the whole graph (vertex
deletion's layer peels, the engine's per-layer cores) chooses each
round's direction instead (:func:`_full_layer_core`): while the
frontier's rows hold more CSR entries than the survivors' rows, the
round *pulls*, recounting the survivors' live neighbours.  Peels within
a subset, maintainer removals and multi-layer coherent cores push.

Each kernel computes the unique fixed point of its peel and counts one
peel operation per removed vertex, an order-independent quantity, so
results — sets, labels, cover, ``SearchStats`` — are bitwise identical
to the dict backend's sequential peels in :mod:`repro.core`; the
property suites in ``tests/test_kernels.py`` and
``tests/test_backends.py`` enforce this.

:func:`np_induced_subgraph` builds the survivor subgraph the top-down
search runs on.
"""

import numpy as _np

from repro.utils.errors import ParameterError


def numpy_version():
    """The numpy version the kernels run on."""
    return _np.__version__


def resolve_kernel(kernel):
    """The peel tier behind any ``kernel`` request: always ``"numpy"``.

    Kept so benchmark reports can record the tier as provenance.
    """
    return "numpy"


# ----------------------------------------------------------------------
# CSR buffer views
# ----------------------------------------------------------------------


def as_index_array(buffer):
    """A zero-copy numpy integer view of a CSR buffer.

    ``array.array`` buffers are viewed through ``np.frombuffer`` with
    the matching integer width (no copy, no per-element conversion);
    buffers that are already ndarrays pass through unchanged.
    """
    if isinstance(buffer, _np.ndarray):
        return buffer
    return _np.frombuffer(buffer, dtype=_np.dtype("i{}".format(
        buffer.itemsize)))


def buffer_nbytes(buffer):
    """Resident payload bytes of a CSR buffer (ndarray or array.array)."""
    nbytes = getattr(buffer, "nbytes", None)
    if nbytes is not None:
        return nbytes
    return buffer.itemsize * len(buffer)


# ----------------------------------------------------------------------
# shared kernel scaffolding
# ----------------------------------------------------------------------


def is_mask(value):
    """Whether ``value`` is a numpy bool array, i.e. a vertex mask."""
    return isinstance(value, _np.ndarray) and value.dtype == _np.bool_


def vertex_count(vertices):
    """How many vertices a vertex mask or a vertex collection names."""
    if is_mask(vertices):
        return int(_np.count_nonzero(vertices))
    return len(vertices)


def vertex_mask(graph, within):
    """``within`` when it is a vertex mask of ``graph``, else ``None``.

    A vertex mask is a length-``n`` bool array naming the vertices where
    it is True, so it only has a meaning over a frozen graph's dense
    ids.  The kernels read ``within`` through this check; a mask of the
    wrong shape, or one handed to any other backend, raises
    :class:`ParameterError` instead of being iterated as ids.
    """
    if not is_mask(within):
        return None
    if not graph.is_frozen:
        raise ParameterError(
            "a boolean vertex mask needs a frozen graph; got one for a "
            "{}".format(type(graph).__name__)
        )
    if within.shape != (graph.num_vertices,):
        raise ParameterError(
            "a vertex mask must have shape ({},), got {}".format(
                graph.num_vertices, within.shape
            )
        )
    return within


def _alive_members(graph, within):
    """``(alive bytearray, member list)`` for an iterable of vertex ids.

    Coerces like the dict backend: duplicates collapse, objects
    hash-equal to an in-range int alias that vertex, and everything
    else is silently dropped.  Members keep their first-seen order.
    """
    n = graph.num_vertices
    if not isinstance(within, (set, frozenset, list, tuple, range, dict)):
        # One-shot iterators must be materialised: the TypeError
        # fallback below re-iterates from the start.
        within = list(within)
    alive = bytearray(n)
    members = []
    append = members.append
    try:
        for v in within:
            if 0 <= v < n and not alive[v]:
                alive[v] = 1
                append(v)
    except TypeError:
        # Non-integer objects in the subset: restart with the coercing
        # loop, since the fast pass may have stopped midway.
        alive = bytearray(n)
        members = []
        for v in within:
            v = graph._vertex_id(v)
            if v is not None and not alive[v]:
                alive[v] = 1
                members.append(v)
    return alive, members


def _member_state(graph, within):
    """``(alive bool array, member id array)`` for an optional subset.

    A vertex mask costs one copy and one ``flatnonzero``.  Any other
    subset is coerced by :func:`_alive_members`; member ids keep the
    subset's first-seen order.
    """
    n = graph.num_vertices
    if within is None:
        return _np.ones(n, dtype=_np.bool_), _np.arange(n, dtype=_np.int64)
    mask = vertex_mask(graph, within)
    if mask is not None:
        return mask.copy(), _np.flatnonzero(mask)
    alive_bytes, members = _alive_members(graph, within)
    alive = _np.frombuffer(alive_bytes, dtype=_np.uint8).astype(_np.bool_)
    member_arr = _np.fromiter(members, dtype=_np.int64, count=len(members))
    return alive, member_arr


def _gather_rows(indptr, indices, rows):
    """Concatenated CSR rows: ``(flat neighbour array, row bounds)``.

    ``bounds`` has ``len(rows) + 1`` entries; row ``r``'s neighbours are
    ``flat[bounds[r]:bounds[r + 1]]``.  Robust to empty rows and an
    empty ``rows`` array.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    bounds = _np.zeros(len(rows) + 1, dtype=_np.int64)
    _np.cumsum(lengths, out=bounds[1:])
    # The peel rounds call this once per layer and round, so it keeps
    # to a dozen numpy calls: no dtype conversions, no empty-row branch.
    flat = _np.repeat(starts - bounds[:-1], lengths) \
        + _np.arange(bounds[-1])
    return indices[flat], bounds


def _gather_layer_rows(graph, layer_tuple, rows):
    """:func:`_gather_rows` of ``rows`` on every layer of ``layer_tuple``.

    Row ``rows[j]`` on ``layer_tuple[i]`` is entry ``i * len(rows) + j``
    of ``bounds``.  Only the row offsets and the neighbour reads run once
    per layer — three numpy calls — so a gather over many layers costs
    little more than over one, and nothing outlives the call.
    """
    csrs = [graph._np_csr(layer) for layer in layer_tuple]
    ends = rows + 1
    starts = _np.concatenate([indptr[rows] for indptr, _ in csrs])
    lengths = _np.concatenate([indptr[ends] for indptr, _ in csrs]) - starts
    bounds = _np.zeros(starts.size + 1, dtype=_np.int64)
    _np.cumsum(lengths, out=bounds[1:])
    positions = _np.repeat(starts - bounds[:-1], lengths) \
        + _np.arange(bounds[-1])
    cuts = bounds[_np.arange(len(csrs) + 1) * rows.size].tolist()
    flat = _np.concatenate([
        indices[positions[low:high]]
        for (_, indices), low, high in zip(csrs, cuts, cuts[1:])
    ])
    return flat, bounds


def _distinct(ids, n):
    """The sorted distinct entries of an int array of ids in ``[0, n)``.

    Flags over all ``n`` ids for fat arrays, a sort for thin ones; both
    beat ``np.unique``, whose hashing path costs milliseconds even on a
    thousand ids.
    """
    if 4 * ids.size > n:
        seen = _np.zeros(n, dtype=_np.bool_)
        seen[ids] = True
        return _np.flatnonzero(seen)
    ids = _np.sort(ids)
    keep = _np.ones(ids.size, dtype=_np.bool_)
    _np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _count_live(flat, bounds, alive):
    """How many entries of each row are alive.

    Row ``r`` is ``flat[bounds[r]:bounds[r + 1]]``, as
    :func:`_gather_rows` returns them (a layer's whole CSR is the rows
    ``indices`` with bounds ``indptr``).  One cumsum over the alive
    flags of all entries, read at the row bounds.
    """
    sums = _np.zeros(flat.size + 1, dtype=_np.int64)
    _np.cumsum(alive[flat], out=sums[1:])
    return sums[bounds[1:]] - sums[bounds[:-1]]


def _induced_degree_arrays(graph, layer_tuple, alive, member_arr, full):
    """Per-layer int64 degree arrays restricted to the alive mask.

    Three strategies: the full-graph case copies the cached degree
    vector; a large subset counts alive neighbours over each
    layer's whole CSR; a small subset gathers only the member rows, on
    all layers at once (:func:`_gather_layer_rows`).  Both counts are
    :func:`_count_live`.  Entries for dead vertices are garbage either
    way — the peel loops never read them.
    """
    # An empty layer tuple has no degrees to count, and nothing to gather.
    if full or not layer_tuple:
        return [graph._np_degrees(layer).copy() for layer in layer_tuple]
    n = graph.num_vertices
    if 2 * member_arr.size > n:
        return [_count_live(indices, indptr, alive)
                for indptr, indices in map(graph._np_csr, layer_tuple)]
    flat, bounds = _gather_layer_rows(graph, layer_tuple, member_arr)
    degrees = _np.zeros((len(layer_tuple), n), dtype=_np.int64)
    positions = _np.arange(len(layer_tuple))[:, None] * n + member_arr
    degrees.reshape(-1)[positions.ravel()] = _count_live(flat, bounds, alive)
    return list(degrees)


def _below_threshold(candidates, degree_arrays, d):
    """The subset of ``candidates`` below ``d`` on any layer."""
    below = _np.zeros(candidates.size, dtype=_np.bool_)
    for degrees in degree_arrays:
        below |= degrees[candidates] < d
    return candidates[below]


# Deep cascades peel a few vertices per round.  Up to this many rows,
# slicing each row beats the vectorised gather's dozen numpy calls
# (about 3 us against 19 us for one row; even at 16 rows).
_THIN_FRONTIER = 8


def _peel_rounds(graph, layer_tuple, d, alive, frontier, degree_arrays,
                 removed=None):
    """Run the cascade to its fixed point; the number of peeled vertices.

    Round-based pushes: the whole frontier is marked dead, then every
    layer's frontier rows are gathered at once and the surviving
    neighbours' degrees are decremented by scatter (``bincount`` for fat
    frontiers, ``np.subtract.at`` for thin ones).  The next frontier is
    the set of touched, still-alive vertices now below ``d`` on some
    layer — the same unique fixed point, and the same removed-vertex
    count, as a sequential FIFO peel.  ``frontier`` must hold distinct
    alive vertices; when ``removed`` is a list, every frontier is
    appended to it.
    """
    csr = [graph._np_csr(layer) for layer in layer_tuple]
    n = graph.num_vertices
    peeled = 0
    while frontier.size:
        alive[frontier] = False
        peeled += frontier.size
        if removed is not None:
            removed.append(frontier)
        thin = frontier.tolist() if frontier.size <= _THIN_FRONTIER else None
        touched = []
        for (indptr, indices), degrees in zip(csr, degree_arrays):
            if thin is None:
                flat, _ = _gather_rows(indptr, indices, frontier)
            else:
                flat = _np.concatenate(
                    [indices[indptr[v]:indptr[v + 1]] for v in thin]
                )
            live = flat[alive[flat]]
            if live.size:
                if 4 * live.size > n:
                    degrees -= _np.bincount(live, minlength=n)
                else:
                    _np.subtract.at(degrees, live, 1)
                touched.append(live)
        if not touched:
            break
        # Touched vertices are alive: only the frontier died this round.
        candidates = _distinct(_np.concatenate(touched), n)
        frontier = _below_threshold(candidates, degree_arrays, d)
    return peeled


def _full_layer_core(graph, layer, d):
    """``layer``'s d-core over the whole graph: ``(core mask, degrees)``.

    ``degrees[v]`` is ``v``'s degree inside the core for every core
    vertex ``v``; other entries are garbage.  The cascade chooses each
    round's direction, as direction-optimising BFS does: while the
    frontier's rows hold more CSR entries than the survivors' rows, the
    round *pulls* — the frontier dies, and the survivors' rows are
    gathered and their live neighbours recounted (:func:`_count_live`).
    From the first round where they do not, it *pushes* the frontier
    through :func:`_peel_rounds`.  Row lengths are the cached degree
    vector, so choosing costs one gather of the frontier's degrees.
    Either direction reaches the same unique fixed point.
    """
    indptr, indices = graph._np_csr(layer)
    lengths = graph._np_degrees(layer)
    degrees = lengths.copy()
    core = _np.ones(graph.num_vertices, dtype=_np.bool_)
    below = lengths < d
    frontier = _np.flatnonzero(below)
    survivors = _np.flatnonzero(~below)
    # CSR entries in the rows of the survivors and the frontier.
    entries = indices.size
    while frontier.size:
        dying = lengths[frontier].sum()
        entries -= dying
        if dying <= entries:
            break
        core[frontier] = False
        flat, bounds = _gather_rows(indptr, indices, survivors)
        counts = _count_live(flat, bounds, core)
        degrees[survivors] = counts
        below = counts < d
        frontier = survivors[below]
        survivors = survivors[~below]
    _peel_rounds(graph, (layer,), d, core, frontier, [degrees])
    return core, degrees


# ----------------------------------------------------------------------
# the numpy kernels
# ----------------------------------------------------------------------


def np_induced_degrees(graph, layer, within=None):
    """:meth:`FrozenMultiLayerGraph.induced_degrees`: ``{v: degree}``."""
    if within is None:
        degrees = graph._np_degrees(layer)
        return dict(zip(range(graph.num_vertices), degrees.tolist()))
    alive, member_arr = _member_state(graph, within)
    (degrees,) = _induced_degree_arrays(
        graph, (layer,), alive, member_arr, full=False
    )
    return dict(zip(member_arr.tolist(), degrees[member_arr].tolist()))


def np_layer_core(graph, layer, d, within=None):
    """``layer``'s d-core within ``within`` as a set of ids.

    The frozen backend's :func:`repro.core.dcore.layer_core`, which
    validates ``d`` and ``layer`` first.
    """
    if within is None:
        core, _ = _full_layer_core(graph, layer, d)
        return set(_np.flatnonzero(core).tolist())
    alive, member_arr = _member_state(graph, within)
    if d == 0 or not member_arr.size:
        return set(member_arr.tolist())
    degree_arrays = _induced_degree_arrays(
        graph, (layer,), alive, member_arr, full=False
    )
    frontier = _below_threshold(member_arr, degree_arrays, d)
    _peel_rounds(graph, (layer,), d, alive, frontier, degree_arrays)
    return set(member_arr[alive[member_arr]].tolist())


def np_coherent_core(graph, layer_tuple, d, within=None, stats=None):
    """The d-CC of ``layer_tuple`` within ``within`` as a frozenset.

    The frozen backend's :func:`repro.core.dcc.coherent_core`, which
    validates the layers and ``d`` and charges ``dcc_calls`` first.
    ``stats.peel_operations`` advances by the number of removed
    vertices — the dict peel's per-dequeue count, because a vertex is
    dequeued precisely once per removal.
    """
    alive, member_arr = _member_state(graph, within)
    if d == 0 or not member_arr.size:
        return frozenset(member_arr.tolist())
    degree_arrays = _induced_degree_arrays(
        graph, layer_tuple, alive, member_arr, full=within is None
    )
    frontier = _below_threshold(member_arr, degree_arrays, d)
    peeled = _peel_rounds(graph, layer_tuple, d, alive, frontier,
                          degree_arrays)
    if stats is not None:
        stats.peel_operations += peeled
    return frozenset(member_arr[alive[member_arr]].tolist())


def np_core_decomposition(graph, layer, within=None):
    """The full core decomposition of one layer.

    Ascending-threshold cascade: the ``d``-threshold peel removes
    exactly the vertices with core number ``d - 1``, and every vertex is
    removed once overall, so the total work stays O(n + m) plus one
    frontier scan of the shrinking member set per threshold.  Returns
    ``{vertex: core number}`` equal to
    :func:`repro.core.dcore.core_decomposition` on the layer's adjacency.
    """
    alive, member_arr = _member_state(graph, within)
    degree_arrays = _induced_degree_arrays(
        graph, (layer,), alive, member_arr, full=within is None
    )
    core = _np.zeros(graph.num_vertices, dtype=_np.int64)
    remaining = member_arr
    d = 1
    while remaining.size:
        frontier = _below_threshold(remaining, degree_arrays, d)
        if frontier.size:
            _peel_rounds(graph, (layer,), d, alive, frontier, degree_arrays)
            survivors = alive[remaining]
            core[remaining[~survivors]] = d - 1
            remaining = remaining[survivors]
        d += 1
    return dict(zip(member_arr.tolist(), core[member_arr].tolist()))


# Flags per int64 word in bit_rows: the sign bit stays clear.
_WORD_BITS = 63


def bit_rows(flags):
    """One Python int per vertex: bit ``i`` of entry ``v`` is ``flags[i][v]``.

    ``flags`` is a non-empty list of equal-length bool arrays.  Each int64
    word carries the bits of up to 63 arrays, never the sign bit; the
    words of a longer list are joined as Python ints, which have no
    width limit.
    """
    rows = None
    for start in range(0, len(flags), _WORD_BITS):
        word = _np.zeros(flags[0].size, dtype=_np.int64)
        for bit, flag in enumerate(flags[start:start + _WORD_BITS]):
            word |= flag.astype(_np.int64) << bit
        word = word.tolist()
        rows = word if rows is None else [
            row | high << start for row, high in zip(rows, word)
        ]
    return rows


def np_induced_subgraph(graph, mask):
    """The frozen graph induced by the vertices of a vertex mask.

    The kept vertices get dense ids in ascending order of their ids in
    ``graph``, and each one's label is that id, so the subgraph's
    ``labels_for`` translates its results back.  The relabelling is
    monotone, so every CSR row stays sorted; one gather of the kept
    rows per layer builds it.
    """
    from repro.graph.frozen import FrozenMultiLayerGraph

    members = _np.flatnonzero(mask)
    # The new id of every kept vertex, -1 for the others.
    new_id = _np.full(graph.num_vertices, -1, dtype=_np.int32)
    new_id[members] = _np.arange(members.size, dtype=_np.int32)
    indptrs, indices, edge_counts, nonempty = [], [], [], []
    for layer in graph.layers():
        flat, bounds = _gather_rows(*graph._np_csr(layer), members)
        targets = new_id[flat]
        kept = targets >= 0
        # Kept entries before each row bound: the new row offsets.
        sums = _np.zeros(flat.size + 1, dtype=_np.int64)
        _np.cumsum(kept, out=sums[1:])
        indptr = sums[bounds].astype(_np.int32)
        indptrs.append(indptr)
        indices.append(targets[kept])
        edge_counts.append(int(indptr[-1]) // 2)
        nonempty.append(indptr[1:] > indptr[:-1])
    return FrozenMultiLayerGraph(
        members.tolist(), indptrs, indices, edge_counts, bit_rows(nonempty),
        name=graph.name,
    )
