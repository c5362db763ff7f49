"""The frozen CSR backend of the multi-layer graph substrate.

:class:`FrozenMultiLayerGraph` is the second implementation of the graph
backend protocol (see :mod:`repro.graph.backend`).  Freezing maps every
vertex to a dense integer id ``0..n-1`` and stores each layer as a CSR
pair (``indptr``/``indices``, :mod:`array`- or numpy-backed), plus one
layer-membership bitmask per vertex (bit ``i`` set iff the vertex has at
least one edge on layer ``i``).

The payoff is in the peel kernels of :mod:`repro.graph.kernels`, which
:mod:`repro.core` calls on a frozen graph: they replace the dict-of-sets
hashing of the reference backend with numpy passes over the CSR arrays,
which is what the d-core and d-CC inner loops spend nearly all of their
time on.

A frozen graph is immutable: the mutation methods of the dict backend
raise :class:`~repro.utils.errors.FrozenGraphError`.  Convert back with
:meth:`FrozenMultiLayerGraph.thaw` when mutation is needed.

Vertex vocabulary
-----------------
The vertices of a frozen graph *are* the dense ids — ``vertices()``
returns ``{0, ..., n-1}`` and every query speaks ids.  The original
labels survive in :attr:`labels`; :meth:`label_of`/:meth:`id_of` and
:meth:`labels_for` translate, and :func:`repro.core.api.search_dccs`
translates results back automatically when it froze the graph itself.
"""

from array import array
from bisect import bisect_left
import sys

import numpy as np

from repro.graph.kernels import as_index_array, buffer_nbytes
from repro.utils.errors import (
    FrozenGraphError,
    LayerIndexError,
    VertexError,
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
    """

    __slots__ = (
        "name",
        "labels",
        "_ids",
        "_indptr",
        "_indices",
        "_edge_counts",
        "_layer_masks",
        "_adj_dicts",
        "_np_csrs",
        "_np_degs",
        "_vertex_set",
        "_thawed_cache",
    )

    kernel = "numpy"

    def __init__(self, labels, indptr, indices, edge_counts, layer_masks,
                 name=""):
        self.name = name
        self.labels = labels
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
        self._thawed_cache = None

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
        n = len(labels)
        indptr = []
        indices = []
        edge_counts = []
        layer_masks = [0] * n
        for layer in graph.layers():
            ptr = array("i", [0]) * (n + 1)
            idx = array("i")
            total = 0
            bit = 1 << layer
            for i, label in enumerate(labels):
                neighbor_ids = sorted(
                    ids[u] for u in graph.neighbors(layer, label)
                )
                idx.extend(neighbor_ids)
                total += len(neighbor_ids)
                ptr[i + 1] = total
                if neighbor_ids:
                    layer_masks[i] |= bit
            indptr.append(ptr)
            indices.append(idx)
            edge_counts.append(total // 2)
        return cls(labels, indptr, indices, edge_counts, layer_masks,
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
        """
        labels = self.labels
        n = len(labels)
        if type(labels) is range:
            def vertex_id(label):
                return label
        else:
            vertex_id = self._id_map().__getitem__
        indptr = list(self._indptr)
        indices = list(self._indices)
        edge_counts = list(self._edge_counts)
        layer_masks = list(self._layer_masks)
        for layer in sorted(set(touched_layers)):
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
        return type(self)(labels, indptr, indices, edge_counts, layer_masks,
                          name=self.name)

    def freeze(self, name=None):
        """Idempotent convenience — a frozen graph freezes to itself."""
        return self

    def thaw(self, original_labels=True, name=None):
        """Rebuild a mutable dict-backend :class:`MultiLayerGraph`.

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

    def _search_thaw(self):
        """A shared, id-keyed dict-backend view for ``backend="dict"``.

        Cached — a frozen graph never changes, so the thaw cost is paid
        once per instance, mirroring the cached ``freeze()`` in the
        other direction.  Reserved for
        :func:`repro.graph.backend.resolve_search_graph`, whose callers
        only read the graph; code that wants a *mutable* copy must use
        :meth:`thaw`, which always returns a fresh one.
        """
        if self._thawed_cache is None:
            self._thawed_cache = self.thaw(original_labels=False)
        return self._thawed_cache

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
    # backend protocol: basic accessors
    # ------------------------------------------------------------------

    @property
    def is_frozen(self):
        """Marks this class as the CSR backend (see the backend protocol)."""
        return True

    @property
    def mutation_version(self):
        """Always ``0`` — a frozen graph cannot mutate, so artifacts
        derived from it never go stale (the dict backend's counterpart
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
        that vertex (``True`` → 1, ``2.0`` → 2), because a dict backend
        over integer vertices resolves such objects by hash equality —
        both backends must agree on membership.
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
    # backend protocol: queries
    # ------------------------------------------------------------------

    def neighbors(self, layer, vertex):
        """The neighbour ids of ``vertex`` on ``layer`` as a frozenset.

        Set-valued like the dict backend's ``neighbors``, so existing
        consumers that apply set operators (``&``, ``|=``) keep working.
        Built from the CSR row on every call; the peel kernels walk the
        raw rows instead.
        """
        self._check_layer(layer)
        vertex = self._require_vertex(vertex)
        indptr, indices = self._np_csr(layer)
        return frozenset(indices[indptr[vertex]:indptr[vertex + 1]].tolist())

    def neighbor_row(self, layer):
        """A per-layer row accessor: ``row(v)`` → list of neighbours.

        The protocol's bulk-cascade primitive: callers that pop many
        vertices in a peeling loop hoist one ``row`` per layer instead
        of paying a checked :meth:`neighbors` call per pop.  This
        backend returns the sorted CSR row, with no set built.
        """
        self._check_layer(layer)
        indptr, indices = self._np_csr(layer)

        def row(vertex):
            return indices[indptr[vertex]:indptr[vertex + 1]].tolist()

        return row

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
        """The Fig. 12 statistics columns, same keys as the dict backend."""
        return {
            "name": self.name,
            "vertices": self.num_vertices,
            "total_edges": self.total_edges(),
            "union_edges": self.union_edge_count(),
            "layers": self.num_layers,
        }

    def memory_bytes(self):
        """Rough resident size: CSR arrays, label table, built caches.

        Honest for both storage forms: ``array.array`` buffers are
        counted as ``itemsize * len`` and numpy-backed buffers as
        ``ndarray.nbytes`` (:func:`repro.graph.kernels.buffer_nbytes`),
        so host ``memory_budget_bytes`` admission control sees the same
        bytes either way.  The kernels' cached views share the CSR
        storage and are not double-counted; their owned per-layer
        degree vectors are.
        """
        total = 0
        for ptr, idx in zip(self._indptr, self._indices):
            total += buffer_nbytes(ptr) + buffer_nbytes(idx)
        total += sys.getsizeof(self.labels)
        if type(self.labels) is not range:
            total += sum(sys.getsizeof(label) for label in self.labels)
        total += sys.getsizeof(self._ids)
        total += sys.getsizeof(self._layer_masks)
        for degrees in self._np_degs:
            if degrees is not None:
                total += degrees.nbytes
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
