"""The frozen CSR graph: the one representation every search runs on.

:class:`FrozenMultiLayerGraph` implements the graph protocol of
:mod:`repro.graph.backend`.  Freezing maps every vertex to a dense
integer id ``0..n-1`` and stores each layer as a CSR pair
(``indptr``/``indices``, :mod:`array`- or numpy-backed), plus one
layer-membership bitmask per vertex (bit ``i`` set iff the vertex has at
least one edge on layer ``i``).

Every peel of :mod:`repro.core` runs as a numpy pass over the CSR
arrays (:mod:`repro.graph.kernels`), which is what the d-core and d-CC
inner loops spend nearly all of their time on.

A frozen graph is immutable: the mutation methods of
:class:`~repro.graph.multilayer.MultiLayerGraph` raise
:class:`~repro.utils.errors.FrozenGraphError`.  Convert back with
:meth:`FrozenMultiLayerGraph.thaw` when mutation is needed.  Being
immutable, it keeps what the kernels derive from it: numpy views,
degree vectors, each layer's d-cores, per ``d`` the subgraph induced by
the union of those cores (:meth:`FrozenMultiLayerGraph.core_union`),
which the sequential searches run in, and per ``(d, s)`` the
vertex-deletion fixed point they start from
(:class:`LayerCoreMemo` holds all three), and per layer subset and
``d`` the d-CC a search peeled.  A patched graph keeps the untouched
layers' cores and the d-CCs of the layer subsets the delta left alone,
but no union and no fixed point, since those depend on every layer.

Vertex vocabulary
-----------------
The vertices of a frozen graph *are* the dense ids — ``vertices()``
returns ``{0, ..., n-1}`` and every query speaks ids.  The original
labels survive in :attr:`labels`; :meth:`label_of`/:meth:`id_of` and
:meth:`labels_for` translate, and the entry points that freeze a
graph themselves translate their answers back
(:func:`repro.graph.backend.resolve_search_graph`).
"""

from array import array
from bisect import bisect_left
from collections import OrderedDict
import sys
import threading

import numpy as np

from repro.graph.kernels import (
    as_index_array,
    buffer_nbytes,
    layer_core_entry,
    np_induced_subgraph,
)
from repro.utils.errors import (
    FrozenGraphError,
    LayerIndexError,
    VertexError,
    check_degree,
)


class FrozenMultiLayerGraph:
    """An immutable, integer-vertex CSR view of a multi-layer graph.

    Build one with :meth:`from_graph` (or ``MultiLayerGraph.freeze()``).

    Attributes
    ----------
    labels:
        ``labels[i]`` — the original vertex object behind dense id ``i``.
    name:
        Carried over from the source graph.
    kernel:
        The peel tier, always ``"numpy"``; benchmark reports record it.
    core_memo:
        The :class:`LayerCoreMemo` of every layer's full-graph d-cores,
        of the d-core unions (:meth:`core_union`), of the
        vertex-deletion fixed points and of the layer subsets' d-CCs.
    """

    __slots__ = (
        "name",
        "labels",
        "core_memo",
        "_ids",
        "_indptr",
        "_indices",
        "_edge_counts",
        "_layer_masks",
        "_adj_dicts",
        "_np_csrs",
        "_np_degs",
        "_vertex_set",
        "_csr_bytes",
    )

    kernel = "numpy"

    def __init__(self, labels, indptr, indices, edge_counts, layer_masks,
                 name="", core_memo=None):
        self.name = name
        self.labels = labels
        self.core_memo = LayerCoreMemo() if core_memo is None else core_memo
        # Lazy: built on the first label lookup.  Identity-labelled
        # graphs (``labels`` a range, e.g. from the synthetic generator)
        # never build it at all, which matters at 10^6 vertices.
        self._ids = None
        self._indptr = indptr
        self._indices = indices
        self._edge_counts = edge_counts
        self._layer_masks = layer_masks
        # Lazy caches: the compatibility adjacency dicts, and the numpy
        # views and degree vectors the kernels read.
        self._adj_dicts = [None] * len(indptr)
        self._np_csrs = [None] * len(indptr)
        self._np_degs = [None] * len(indptr)
        self._vertex_set = None
        self._csr_bytes = csr_nbytes(indptr, indices)

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph, name=None):
        """Freeze a :class:`~repro.graph.multilayer.MultiLayerGraph`.

        Vertices are assigned dense ids in sorted label order when the
        labels are mutually comparable, falling back to ``repr`` order —
        either way the id assignment is deterministic for a given graph.
        """
        labels = list(graph.vertices())
        try:
            labels.sort()
        except TypeError:
            labels.sort(key=repr)
        ids = {label: i for i, label in enumerate(labels)}
        layers = graph.num_layers
        arrays = ([None] * layers, [None] * layers, [0] * layers,
                  [0] * len(labels))
        _freeze_layers(graph, labels, ids.__getitem__, graph.layers(),
                       *arrays)
        return cls(labels, *arrays,
                   name=graph.name if name is None else name)

    def patched(self, graph, touched_layers):
        """A new frozen view with only ``touched_layers`` re-frozen.

        ``graph`` must be the (mutated) source of this frozen graph with
        an *unchanged vertex set* — the dense-id assignment is derived
        from the sorted labels, so the caller (``MultiLayerGraph.freeze``)
        only patches for non-structural deltas.  Untouched layers share
        their CSR arrays with ``self`` (they are immutable); touched
        layers are rebuilt exactly as :meth:`from_graph` would build
        them, so the result is indistinguishable from a full re-freeze.
        The :attr:`core_memo` keeps the untouched layers' entries and
        the d-CCs of the layer subsets that hold no touched layer.
        """
        labels = self.labels
        if type(labels) is range:
            def vertex_id(label):
                return label
        else:
            vertex_id = self._id_map().__getitem__
        arrays = (list(self._indptr), list(self._indices),
                  list(self._edge_counts), list(self._layer_masks))
        touched_layers = sorted(set(touched_layers))
        _freeze_layers(graph, labels, vertex_id, touched_layers, *arrays)
        memo = self.core_memo.carried(touched_layers, csr_nbytes(*arrays[:2]))
        return type(self)(labels, *arrays, name=self.name, core_memo=memo)

    def freeze(self, name=None):
        """Idempotent convenience — a frozen graph freezes to itself."""
        return self

    def with_empty_memo(self):
        """This graph over the same (immutable) arrays with an empty
        :attr:`core_memo`: a search on it peels, builds and deletes
        everything again, as on a newly frozen graph, without copying
        the CSR."""
        return type(self)(self.labels, self._indptr, self._indices,
                          self._edge_counts, self._layer_masks,
                          name=self.name)

    def core_union(self, d):
        """The frozen graph induced by the union of the layers' d-cores.

        Vertex deletion's first round removes every vertex that lies in
        no layer's d-core, whatever ``s`` is, so a search at degree
        ``d`` reports nothing outside this union.  When the union holds
        more than half of the vertices (or all of them), the graph
        itself stands for it.  Otherwise it is
        :func:`~repro.graph.kernels.np_induced_subgraph` of the union:
        dense ids in ascending order, each labelled with its id here.
        Each layer's d-core lies inside the union, so it is the
        subgraph's d-core too, and the subgraph's own memo starts with
        every layer's entry in its ids.  Built once per ``d`` and kept
        in :attr:`core_memo`.
        """
        check_degree(d)
        union = self.core_memo.union(d, lambda: self._build_core_union(d))
        return self if union is None else union

    def _build_core_union(self, d):
        """:meth:`core_union`'s subgraph, or ``None`` for the graph."""
        entries = [layer_core_entry(self, layer, d)
                   for layer in self.layers()]
        mask = np.zeros(self.num_vertices, dtype=np.bool_)
        for members, _ in entries:
            mask[members] = True
        size = int(np.count_nonzero(mask))
        if 2 * size > self.num_vertices or size == self.num_vertices:
            return None
        # The union's id of every union vertex: kept vertices before it.
        union_id = (np.cumsum(mask) - 1).astype(np.int32)
        cores = {}
        for layer, (members, inside) in enumerate(entries):
            ids = union_id[members]
            ids.flags.writeable = False
            cores[layer, d] = (ids, inside)
        return np_induced_subgraph(self, mask,
                                   core_memo=LayerCoreMemo(cores))

    def thaw(self, original_labels=True, name=None):
        """Rebuild a mutable :class:`MultiLayerGraph`.

        With ``original_labels=True`` (default) the round trip
        ``graph.freeze().thaw() == graph`` holds exactly; with ``False``
        the thawed graph keeps the dense integer ids as its vertices.
        """
        from repro.graph.multilayer import MultiLayerGraph

        if original_labels:
            def out(i):
                return self.labels[i]
        else:
            def out(i):
                return i
        thawed = MultiLayerGraph(
            self.num_layers,
            vertices=(out(i) for i in range(self.num_vertices)),
            name=self.name if name is None else name,
        )
        for layer in self.layers():
            indptr = self._indptr[layer]
            indices = self._indices[layer]
            for v in range(self.num_vertices):
                for j in range(indptr[v], indptr[v + 1]):
                    u = int(indices[j])
                    if v < u:
                        thawed.add_edge(layer, out(v), out(u))
        return thawed

    # ------------------------------------------------------------------
    # id <-> label translation
    # ------------------------------------------------------------------

    def label_of(self, vertex):
        """The original label behind dense id ``vertex``."""
        return self.labels[self._require_vertex(vertex)]

    def _id_map(self):
        """The lazily built ``label -> dense id`` dict."""
        if self._ids is None:
            self._ids = {label: i for i, label in enumerate(self.labels)}
        return self._ids

    def id_of(self, label):
        """The dense id of an original label; raises on unknown labels."""
        labels = self.labels
        if type(labels) is range:
            # Identity labels: resolve arithmetically instead of
            # materialising an n-entry dict (range.index applies the
            # same hash-equality aliasing a dict lookup would).
            try:
                return labels.index(label)
            except (ValueError, TypeError):
                raise VertexError(label) from None
        try:
            return self._id_map()[label]
        except (KeyError, TypeError):
            raise VertexError(label) from None

    def ids_for(self, labels):
        """Translate an iterable of original labels to a set of ids."""
        return {self.id_of(label) for label in labels}

    def labels_for(self, vertices):
        """Translate an iterable of dense ids to a frozenset of labels."""
        labels = self.labels
        return frozenset(labels[v] for v in vertices)

    # ------------------------------------------------------------------
    # graph protocol: basic accessors
    # ------------------------------------------------------------------

    @property
    def is_frozen(self):
        """Marks this class as the CSR graph (see the graph protocol)."""
        return True

    @property
    def mutation_version(self):
        """Always ``0`` — a frozen graph cannot mutate, so artifacts
        derived from it never go stale (``MultiLayerGraph``'s counter
        ticks on every mutation)."""
        return 0

    @property
    def num_layers(self):
        return len(self._indptr)

    @property
    def num_vertices(self):
        return len(self.labels)

    def vertices(self):
        """Return a new set of all vertex ids, ``{0, ..., n-1}``."""
        return set(range(self.num_vertices))

    def vertex_set(self):
        """A cached frozenset of all vertex ids (do not mutate)."""
        if self._vertex_set is None:
            self._vertex_set = frozenset(range(self.num_vertices))
        return self._vertex_set

    def _vertex_id(self, vertex):
        """The dense int id behind ``vertex``, or ``None``.

        Any object that compares equal to an in-range integer aliases
        that vertex (``True`` → 1, ``2.0`` → 2), because a
        ``MultiLayerGraph`` over integer vertices resolves such objects
        by hash equality — both graphs must agree on membership.
        """
        if isinstance(vertex, int):
            return vertex if 0 <= vertex < self.num_vertices else None
        try:
            as_int = int(vertex)
        except (TypeError, ValueError, OverflowError):
            return None
        if as_int == vertex and 0 <= as_int < self.num_vertices:
            return as_int
        return None

    def has_vertex(self, vertex):
        """Whether ``vertex`` resolves to a dense id of this graph."""
        return self._vertex_id(vertex) is not None

    def __contains__(self, vertex):
        return self.has_vertex(vertex)

    def __len__(self):
        return self.num_vertices

    def __iter__(self):
        return iter(range(self.num_vertices))

    def layers(self):
        return range(self.num_layers)

    def _check_layer(self, layer):
        if not 0 <= layer < self.num_layers:
            raise LayerIndexError(layer, self.num_layers)

    def _check_vertex(self, vertex):
        if not self.has_vertex(vertex):
            raise VertexError(vertex)

    def _require_vertex(self, vertex):
        """Coerce to a dense int id, raising :class:`VertexError`."""
        vertex_id = self._vertex_id(vertex)
        if vertex_id is None:
            raise VertexError(vertex)
        return vertex_id

    # ------------------------------------------------------------------
    # graph protocol: queries
    # ------------------------------------------------------------------

    def neighbors(self, layer, vertex):
        """The neighbour ids of ``vertex`` on ``layer`` as a frozenset.

        Set-valued like ``MultiLayerGraph.neighbors``, so existing
        consumers that apply set operators (``&``, ``|=``) keep working.
        Built from the CSR row on every call; the peel kernels walk the
        raw rows instead.
        """
        self._check_layer(layer)
        vertex = self._require_vertex(vertex)
        indptr, indices = self._np_csr(layer)
        return frozenset(indices[indptr[vertex]:indptr[vertex + 1]].tolist())

    def adjacency(self, layer):
        """A read-only ``{id: frozenset(neighbour ids)}`` dict of ``layer``.

        Lazily materialised and cached, so dict-path code written against
        ``MultiLayerGraph.adjacency`` runs unchanged on a frozen graph —
        a compatibility path, not a fast path (the CSR kernels never use
        it).
        """
        self._check_layer(layer)
        cached = self._adj_dicts[layer]
        if cached is None:
            indptr = self._indptr[layer].tolist()
            nbrs = self._indices[layer].tolist()
            cached = {
                v: frozenset(nbrs[indptr[v]:indptr[v + 1]])
                for v in range(self.num_vertices)
            }
            self._adj_dicts[layer] = cached
        return cached

    def degree(self, layer, vertex):
        self._check_layer(layer)
        vertex = self._require_vertex(vertex)
        indptr = self._indptr[layer]
        # int() keeps the return type a plain int when the CSR buffers
        # are numpy-backed (generator- or payload-built graphs).
        return int(indptr[vertex + 1] - indptr[vertex])

    def min_degree_over(self, layers, vertex):
        return min(self.degree(layer, vertex) for layer in layers)

    def has_edge(self, layer, u, v):
        """Edge test by binary search in the sorted CSR row of ``u``."""
        self._check_layer(layer)
        u = self._vertex_id(u)
        v = self._vertex_id(v)
        if u is None or v is None:
            return False
        indptr = self._indptr[layer]
        indices = self._indices[layer]
        lo, hi = indptr[u], indptr[u + 1]
        position = bisect_left(indices, v, lo, hi)
        return position < hi and indices[position] == v

    def induced_degrees(self, layer, within=None):
        """``{v: deg_layer(v) within the subset}`` — the protocol's bulk query."""
        self._check_layer(layer)
        from repro.graph.kernels import np_induced_degrees

        return np_induced_degrees(self, layer, within=within)

    def layer_mask(self, vertex):
        """The membership bitmask: bit ``i`` set iff ``deg_i(vertex) > 0``."""
        return self._layer_masks[self._require_vertex(vertex)]

    def layers_of(self, vertex):
        """The layers on which ``vertex`` has at least one edge."""
        mask = self.layer_mask(vertex)
        return frozenset(
            layer for layer in range(self.num_layers) if mask >> layer & 1
        )

    def num_edges(self, layer):
        self._check_layer(layer)
        return self._edge_counts[layer]

    def total_edges(self):
        return sum(self._edge_counts)

    def edges(self, layer):
        """Yield each edge once as an id pair ``(u, v)`` with ``u < v``."""
        self._check_layer(layer)
        indptr = self._indptr[layer]
        indices = self._indices[layer]
        for v in range(self.num_vertices):
            for j in range(indptr[v], indptr[v + 1]):
                u = int(indices[j])
                if v < u:
                    yield (v, u)

    def all_edges(self):
        for layer in self.layers():
            for u, v in self.edges(layer):
                yield (layer, u, v)

    def union_edge_count(self):
        n = self.num_vertices
        seen = set()
        for layer in self.layers():
            for u, v in self.edges(layer):
                seen.add(u * n + v)
        return len(seen)

    def summary(self):
        """The Fig. 12 statistics columns, same keys as ``MultiLayerGraph``'s."""
        return {
            "name": self.name,
            "vertices": self.num_vertices,
            "total_edges": self.total_edges(),
            "union_edges": self.union_edge_count(),
            "layers": self.num_layers,
        }

    def csr_nbytes(self):
        """The bytes of the CSR arrays, the budget of the d-CCs the
        :attr:`core_memo` keeps."""
        return self._csr_bytes

    def memory_bytes(self, seen=None):
        """Rough resident size: CSR arrays, label table, built caches.

        Honest for both storage forms: ``array.array`` buffers are
        counted as ``itemsize * len`` and numpy-backed buffers as
        ``ndarray.nbytes`` (:func:`repro.graph.kernels.buffer_nbytes`),
        so host ``memory_budget_bytes`` admission control sees the same
        bytes either way.  The kernels' cached views share the CSR
        storage and are not double-counted; their owned per-layer
        degree vectors and everything the :attr:`core_memo` keeps are
        (:meth:`LayerCoreMemo.nbytes`).  Each array counts once: a kept
        subgraph's memo shares its parent's arrays, and ``seen`` holds
        those counted so far (:func:`count_once`).
        """
        if seen is None:
            seen = set()
        total = count_once((*self._indptr, *self._indices), seen)
        # A range or an array('i') holds no label objects.
        total += sys.getsizeof(self.labels)
        if type(self.labels) is list:
            total += sum(sys.getsizeof(label) for label in self.labels)
        total += sys.getsizeof(self._ids)
        total += sys.getsizeof(self._layer_masks)
        total += count_once([degrees for degrees in self._np_degs
                             if degrees is not None], seen)
        total += self.core_memo.nbytes(seen)
        for adj in self._adj_dicts:
            if adj is not None:
                total += sys.getsizeof(adj)
                total += sum(sys.getsizeof(s) for s in adj.values())
        return total

    # ------------------------------------------------------------------
    # immutability guards
    # ------------------------------------------------------------------

    def _refuse(self, operation):
        raise FrozenGraphError(operation)

    def add_vertex(self, vertex):
        self._refuse("add_vertex")

    def add_vertices(self, vertices):
        self._refuse("add_vertices")

    def add_edge(self, layer, u, v):
        self._refuse("add_edge")

    def add_edges(self, layer, edges):
        self._refuse("add_edges")

    def remove_edge(self, layer, u, v):
        self._refuse("remove_edge")

    def remove_vertex(self, vertex):
        self._refuse("remove_vertex")

    def remove_vertices(self, vertices):
        self._refuse("remove_vertices")

    # ------------------------------------------------------------------
    # internals shared with the peel kernels
    # ------------------------------------------------------------------

    def _np_csr(self, layer):
        """Cached numpy int views of ``layer``'s CSR pair.

        Zero-copy: ``array.array`` storage is viewed through
        ``np.frombuffer``; numpy-backed storage passes through.
        """
        cached = self._np_csrs[layer]
        if cached is None:
            cached = (as_index_array(self._indptr[layer]),
                      as_index_array(self._indices[layer]))
            self._np_csrs[layer] = cached
        return cached

    def _np_degrees(self, layer):
        """Full-graph degrees of ``layer`` as a cached int64 ndarray."""
        cached = self._np_degs[layer]
        if cached is None:
            indptr = self._np_csr(layer)[0].astype(np.int64)
            cached = indptr[1:] - indptr[:-1]
            self._np_degs[layer] = cached
        return cached

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FrozenMultiLayerGraph):
            return NotImplemented
        if self.num_layers != other.num_layers or \
                self.num_vertices != other.num_vertices:
            return False
        # Normalise before comparing: labels may be a list or a range,
        # CSR buffers may be array.array or numpy-backed — equal content
        # means equal graph regardless of storage.
        if list(self.labels) != list(other.labels):
            return False
        for mine, theirs in ((self._indptr, other._indptr),
                             (self._indices, other._indices)):
            for a, b in zip(mine, theirs):
                if a is not b and a.tolist() != b.tolist():
                    return False
        return True

    def __ne__(self, other):
        equal = self.__eq__(other)
        return NotImplemented if equal is NotImplemented else not equal

    def __repr__(self):
        label = " {!r}".format(self.name) if self.name else ""
        return "FrozenMultiLayerGraph({} layers, {} vertices, {} edges{})".format(
            self.num_layers, self.num_vertices, self.total_edges(), label
        )


def _freeze_layers(graph, labels, vertex_id, layers, indptr, indices,
                   edge_counts, layer_masks):
    """Freeze each of ``layers`` into the four lists, in place; row ``i``
    holds the sorted ids (``vertex_id``) of ``labels[i]``'s neighbours."""
    n = len(labels)
    for layer in layers:
        ptr = array("i", [0]) * (n + 1)
        idx = array("i")
        total = 0
        bit = 1 << layer
        for i, label in enumerate(labels):
            neighbor_ids = sorted(
                vertex_id(u) for u in graph.neighbors(layer, label)
            )
            idx.extend(neighbor_ids)
            total += len(neighbor_ids)
            ptr[i + 1] = total
            if neighbor_ids:
                layer_masks[i] |= bit
            else:
                layer_masks[i] &= ~bit
        indptr[layer] = ptr
        indices[layer] = idx
        edge_counts[layer] = total // 2


# What a kept d-CC costs beyond its ids, as its budget counts it: the
# ndarray header (112 bytes), the key tuples and the dict slot.
SUBSET_ENTRY_OVERHEAD = 256


def _subset_cost(ids):
    """A kept d-CC's cost: its ids plus the per-entry overhead."""
    return ids.nbytes + SUBSET_ENTRY_OVERHEAD


def csr_nbytes(indptr, indices):
    """The bytes of a graph's CSR buffers."""
    return sum(map(buffer_nbytes, (*indptr, *indices)))


def count_once(arrays, seen):
    """The bytes of those ``arrays`` whose ``id`` is not in ``seen``,
    which then holds every one of them: within one ``memory_bytes``
    walk, an array shared by two holders counts once."""
    total = 0
    for array in arrays:
        if id(array) not in seen:
            seen.add(id(array))
            total += buffer_nbytes(array)
    return total


class LayerCoreMemo:
    """Each layer's full-graph d-core, kept per ``(layer, d)``, the
    d-core union of every ``d``, the vertex-deletion fixed point of
    every ``(d, s)`` a search asked for and the d-CC of every layer
    subset a search peeled over a bound known to contain it.

    The core depends only on the layer and ``d``, and a frozen graph
    never changes, so the first full-graph peel
    (:func:`repro.graph.kernels.layer_core_entry`) stores it here and
    later ones read it.  An entry is two read-only int32 arrays, the
    core's ascending member ids and their degrees inside the core: 8
    bytes per core vertex.  Beside them, per ``d``, the
    :meth:`~FrozenMultiLayerGraph.core_union` subgraph (``None`` when
    the graph stands for it), and per ``(d, s)`` the fixed point of
    :func:`~repro.core.preprocess.vertex_deletion` on that union (a
    :class:`~repro.core.preprocess.KeptFixedPoint`).  Per ``(sorted
    layer tuple, d)`` with ``d >= 1``, the d-CC ``C^d_L`` of the graph
    as its ascending member ids, a read-only int32 array
    (:func:`repro.core.dcc.kept_coherent_core` fills and reads them).
    Those are bounded without a knob: their ids plus
    :data:`SUBSET_ENTRY_OVERHEAD` bytes an entry never exceed the
    graph's own CSR bytes (:meth:`FrozenMultiLayerGraph.csr_nbytes`),
    and the oldest entries are dropped first.  Entries are written
    whole and never changed, so threads that fill one key race
    harmlessly.  ``hits``/``misses`` count layer-core lookups,
    ``kept``/``dropped`` the entries :meth:`carried` passed to a patched
    graph or left behind; a lock keeps them exact, and a patched graph
    continues its parent's.  A union or a fixed point depends on every
    layer, so no patched graph gets one; a d-CC depends on its own
    layers only, so a patched graph keeps those whose layers the delta
    left alone.
    """

    __slots__ = ("_entries", "_unions", "_fixed_points", "_subsets",
                 "_subset_bytes", "_lock", "hits", "misses", "kept",
                 "dropped")

    def __init__(self, entries=None, hits=0, misses=0, kept=0, dropped=0,
                 subsets=()):
        self._entries = {} if entries is None else entries
        self._unions = {}
        self._fixed_points = {}
        self._subsets = OrderedDict(subsets)
        self._subset_bytes = sum(map(_subset_cost,
                                     self._subsets.values()))
        self._lock = threading.Lock()
        self.hits, self.misses = hits, misses
        self.kept, self.dropped = kept, dropped

    def __reduce__(self):
        """A copied or pickled graph starts with an empty memo."""
        return LayerCoreMemo, ()

    def union(self, d, build):
        """The union entry at ``d``; ``build()`` makes it on a miss."""
        return self._keep(self._unions, d, build)

    def fixed_point(self, d, s, build):
        """The fixed-point entry at ``(d, s)``; ``build()`` makes it on
        a miss."""
        return self._keep(self._fixed_points, (d, s), build)

    def _keep(self, table, key, build):
        """``table[key]``, stored from ``build()`` on a miss.

        Threads that build the same key race harmlessly: the first
        entry stored is the one every caller gets.
        """
        try:
            return table[key]
        except KeyError:
            pass
        entry = build()
        with self._lock:
            return table.setdefault(key, entry)

    def lookup(self, key, build):
        """The entry under ``key``; ``build()`` makes it on a miss."""
        entry = self._entries.get(key)
        hit = entry is not None
        if not hit:
            entry = build()
        with self._lock:
            self.hits += hit
            self.misses += not hit
            self._entries.setdefault(key, entry)
        return entry

    def subset_core(self, key):
        """The kept d-CC's ids under ``(layers, d)``, or ``None``."""
        return self._subsets.get(key)

    def keep_subset_core(self, key, ids, budget):
        """Keep ``ids`` under ``key`` unless it is kept already, dropping
        the oldest entries until every entry's cost fits in ``budget``
        bytes (an entry that alone exceeds it is not kept)."""
        cost = _subset_cost(ids)
        with self._lock:
            subsets = self._subsets
            if key in subsets or cost > budget:
                return
            while self._subset_bytes + cost > budget:
                _, dropped = subsets.popitem(last=False)
                self._subset_bytes -= _subset_cost(dropped)
            subsets[key] = ids
            self._subset_bytes += cost

    def carried(self, touched_layers, budget):
        """This memo for a graph patched on ``touched_layers``: the other
        layers' entries and d-CCs, with the counters continued, and no
        union or fixed point.  The d-CCs are cut to the patched graph's
        ``budget`` as :meth:`keep_subset_core` cuts them."""
        touched = frozenset(touched_layers)
        with self._lock:
            entries = {key: entry for key, entry in self._entries.items()
                       if key[0] not in touched}
            dropped = len(self._entries) - len(entries)
            subsets = [(key, ids) for key, ids in self._subsets.items()
                       if touched.isdisjoint(key[0])]
        spare = budget - sum(_subset_cost(ids) for _, ids in subsets)
        while spare < 0:
            spare += _subset_cost(subsets.pop(0)[1])
        return LayerCoreMemo(entries, self.hits, self.misses,
                             self.kept + len(entries),
                             self.dropped + dropped, subsets)

    def subset_nbytes(self):
        """The kept d-CCs' cost as the budget counts it: their ids plus
        :data:`SUBSET_ENTRY_OVERHEAD` bytes each."""
        return self._subset_bytes

    def nbytes(self, seen=None):
        """The bytes of every entry's two arrays, every union, every
        fixed point and every kept d-CC (its ids plus
        :data:`SUBSET_ENTRY_OVERHEAD`), each array counted once
        (:func:`count_once`)."""
        if seen is None:
            seen = set()
        total = count_once([array for entry in list(self._entries.values())
                            for array in entry], seen)
        total += self._subset_bytes
        for union in list(self._unions.values()):
            if union is not None:
                total += union.memory_bytes(seen)
        for kept in list(self._fixed_points.values()):
            total += kept.memory_bytes(seen)
        return total
