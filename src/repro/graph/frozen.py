"""The frozen CSR backend of the multi-layer graph substrate.

:class:`FrozenMultiLayerGraph` is the second implementation of the graph
backend protocol (see :mod:`repro.graph.backend`).  Freezing maps every
vertex to a dense integer id ``0..n-1`` and stores each layer as a CSR
pair (``indptr``/``indices``, both :mod:`array`-backed), plus one
layer-membership bitmask per vertex (bit ``i`` set iff the vertex has at
least one edge on layer ``i``).

The payoff is in the peeling kernels at the bottom of this module:
:func:`frozen_layer_core` and :func:`frozen_coherent_core` replace the
dict-of-sets hashing of the reference backend with flat-array indexing
and ``bytearray`` membership flags, which is what the d-core and d-CC
inner loops of :mod:`repro.core` spend nearly all of their time on.

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
from collections import OrderedDict
import sys

from repro.graph.kernels import buffer_nbytes, resolve_kernel, vertex_mask
from repro.utils.errors import (
    FrozenGraphError,
    LayerIndexError,
    VertexError,
    check_degree,
)

# Per-layer cap on the lazy neighbour-set cache (entries = vertices with
# a materialised frozenset of neighbours).  The cache exists because a
# C-level set intersection beats any pure-Python CSR walk on small
# induced-degree subsets, but each entry costs dict-backend-scale memory
# — unbounded, a long-lived session over a large graph would slowly
# rebuild the dict representation it froze to escape.  At the cap the
# least-recently-used entry is discarded; a re-touched vertex just
# rebuilds its set from the CSR row, so results never change.
DEFAULT_NEIGHBOR_SET_CAP = 32768


class _BoundedNeighborSets:
    """Per-vertex neighbour frozensets of one layer, LRU-bounded.

    Indexable like the plain list it replaces (``sets[v]`` for a dense
    vertex id); entries are built on demand from the CSR row and at most
    ``cap`` of them stay cached.
    """

    __slots__ = ("_indptr", "_nbrs", "_cap", "_entries")

    def __init__(self, indptr, nbrs, cap):
        self._indptr = indptr
        self._nbrs = nbrs
        self._cap = cap
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, vertex):
        entries = self._entries
        try:
            value = entries[vertex]
        except KeyError:
            value = frozenset(
                self._nbrs[self._indptr[vertex]:self._indptr[vertex + 1]]
            )
            entries[vertex] = value
            if len(entries) > self._cap:
                entries.popitem(last=False)
        else:
            entries.move_to_end(vertex)
        return value

    def memory_bytes(self):
        """Resident bytes of the currently cached entries."""
        total = sys.getsizeof(self._entries)
        total += sum(sys.getsizeof(s) for s in self._entries.values())
        return total


class FrozenMultiLayerGraph:
    """An immutable, integer-vertex CSR view of a multi-layer graph.

    Build one with :meth:`from_graph` (or ``MultiLayerGraph.freeze()``).

    Attributes
    ----------
    labels:
        ``labels[i]`` — the original vertex object behind dense id ``i``.
    name:
        Carried over from the source graph.
    """

    __slots__ = (
        "name",
        "labels",
        "_ids",
        "_kernel",
        "_indptr",
        "_indices",
        "_edge_counts",
        "_layer_masks",
        "_nbr_lists",
        "_ptr_lists",
        "_deg_lists",
        "_nbr_sets",
        "_nbr_set_cap",
        "_adj_dicts",
        "_np_csrs",
        "_np_degs",
        "_vertex_set",
        "_thawed_cache",
    )

    def __init__(self, labels, indptr, indices, edge_counts, layer_masks,
                 name="", neighbor_set_cap=None, kernel="auto"):
        self.name = name
        self.labels = labels
        # Lazy: built on the first label lookup.  Identity-labelled
        # graphs (``labels`` a range, e.g. from the synthetic generator)
        # never build it at all, which matters at 10^6 vertices.
        self._ids = None
        self._kernel = resolve_kernel(kernel)
        self._indptr = indptr
        self._indices = indices
        self._edge_counts = edge_counts
        self._layer_masks = layer_masks
        # Lazy caches: plain-list mirrors of the CSR arrays for the hot
        # python kernels (list indexing beats array indexing in CPython)
        # and numpy views/degree vectors for the numpy kernel tier.
        self._nbr_lists = [None] * len(indptr)
        self._ptr_lists = [None] * len(indptr)
        self._deg_lists = [None] * len(indptr)
        self._nbr_sets = [None] * len(indptr)
        self._nbr_set_cap = DEFAULT_NEIGHBOR_SET_CAP \
            if neighbor_set_cap is None else neighbor_set_cap
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
                          name=self.name,
                          neighbor_set_cap=self._nbr_set_cap,
                          kernel=self._kernel)

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
    def kernel(self):
        """The active peel-kernel tier, ``"python"`` or ``"numpy"``.

        An execution preference, not part of the graph's identity: both
        tiers compute bitwise-identical results (see
        :mod:`repro.graph.kernels`), so switching kernels never
        invalidates caches or derived artifacts.
        """
        return self._kernel

    def set_kernel(self, kernel):
        """Select the peel-kernel tier; returns the resolved choice.

        ``"auto"`` resolves to ``"numpy"`` when numpy is importable;
        an explicit ``"numpy"`` without numpy raises
        :class:`~repro.utils.errors.ParameterError`.
        """
        self._kernel = resolve_kernel(kernel)
        return self._kernel

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
        Backed by the lazy per-layer neighbour-set cache; the peeling
        kernels bypass this and walk the raw CSR rows instead.
        """
        self._check_layer(layer)
        return self._neighbor_sets(layer)[self._require_vertex(vertex)]

    def neighbor_row(self, layer):
        """A per-layer row accessor: ``row(v)`` → sequence of neighbours.

        The protocol's bulk-cascade primitive: callers that pop many
        vertices in a peeling loop hoist one ``row`` per layer instead
        of paying a checked :meth:`neighbors` call per pop.  This
        backend returns raw CSR row slices — no set materialisation.
        """
        self._check_layer(layer)
        indptr = self._indptr_list(layer)
        nbrs = self._neighbor_list(layer)

        def row(vertex):
            return nbrs[indptr[vertex]:indptr[vertex + 1]]

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
            # Built straight from the CSR rows rather than through the
            # bounded neighbour-set cache: a full-graph sweep would
            # otherwise thrash the LRU without ever hitting it.
            indptr = self._indptr_list(layer)
            nbrs = self._neighbor_list(layer)
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
        if self._kernel == "numpy":
            from repro.graph.kernels import np_induced_degrees

            return np_induced_degrees(self, layer, within=within)
        if within is None:
            degrees = self._degree_list(layer)
            return {v: degrees[v] for v in range(self.num_vertices)}
        alive, members = _alive_members(self, within)
        # Same two-strategy kernel as the peels; the flag-walk sparse
        # branch keeps this cold path from materialising the per-layer
        # neighbour-set cache.
        (degrees,) = _induced_degree_lists(
            self, (layer,), alive, members, full=False, use_set_cache=False
        )
        return {v: degrees[v] for v in members}

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
        bytes either way.  The numpy kernel tier's cached views share
        the CSR storage and are not double-counted; its owned per-layer
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
        for cache in (self._nbr_lists, self._ptr_lists, self._deg_lists):
            for mirror in cache:
                if mirror is not None:
                    total += sys.getsizeof(mirror)
        for degrees in self._np_degs:
            if degrees is not None:
                total += degrees.nbytes
        for sets in self._nbr_sets:
            if sets is not None:
                total += sets.memory_bytes()
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
    # internals shared with the peeling kernels
    # ------------------------------------------------------------------

    def _neighbor_list(self, layer):
        """The CSR ``indices`` of ``layer`` as a cached plain list."""
        cached = self._nbr_lists[layer]
        if cached is None:
            cached = self._indices[layer].tolist()
            self._nbr_lists[layer] = cached
        return cached

    def _indptr_list(self, layer):
        """The CSR ``indptr`` of ``layer`` as a cached plain list."""
        cached = self._ptr_lists[layer]
        if cached is None:
            cached = self._indptr[layer].tolist()
            self._ptr_lists[layer] = cached
        return cached

    def _neighbor_sets(self, layer):
        """Per-vertex neighbour sets of ``layer`` (lazy, LRU-bounded).

        Used by the small-subset branch of the induced-degree
        computation, where a C-level set intersection beats any
        pure-Python walk of the CSR row, and by the checked
        :meth:`neighbors` accessor.  Entries cost roughly the dict
        backend's memory per vertex, so at most ``_nbr_set_cap`` of them
        stay resident per layer (:class:`_BoundedNeighborSets`); an
        evicted vertex rebuilds its set from the CSR row on next touch.
        """
        cached = self._nbr_sets[layer]
        if cached is None:
            cached = _BoundedNeighborSets(
                self._indptr_list(layer), self._neighbor_list(layer),
                self._nbr_set_cap,
            )
            self._nbr_sets[layer] = cached
        return cached

    def _degree_list(self, layer):
        """Full-graph degrees of ``layer`` as a cached plain list."""
        cached = self._deg_lists[layer]
        if cached is None:
            # Derived from the plain-list indptr mirror so the entries
            # are plain ints even on numpy-backed storage.
            indptr = self._indptr_list(layer)
            cached = [
                indptr[v + 1] - indptr[v] for v in range(self.num_vertices)
            ]
            self._deg_lists[layer] = cached
        return cached

    def _np_csr(self, layer):
        """Cached numpy int views of ``layer``'s CSR pair.

        Zero-copy: ``array.array`` storage is viewed through
        ``np.frombuffer``; numpy-backed storage passes through.  Only
        the numpy kernel tier calls this.
        """
        cached = self._np_csrs[layer]
        if cached is None:
            from repro.graph.kernels import as_index_array

            cached = (as_index_array(self._indptr[layer]),
                      as_index_array(self._indices[layer]))
            self._np_csrs[layer] = cached
        return cached

    def _np_degrees(self, layer):
        """Full-graph degrees of ``layer`` as a cached int64 ndarray."""
        cached = self._np_degs[layer]
        if cached is None:
            import numpy as np

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
        # means equal graph regardless of storage (and of kernel tier,
        # which is an execution preference, not identity).
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


# ----------------------------------------------------------------------
# flat-array peeling kernels (the frozen fast paths of repro.core)
# ----------------------------------------------------------------------


def _alive_members(graph, within):
    """``(alive bytearray, member sequence)`` for an optional vertex subset.

    ``within`` is an iterable of vertex ids, or a vertex mask (see
    :func:`repro.graph.kernels.vertex_mask`), whose members come out in
    ascending order.
    """
    n = graph.num_vertices
    if within is None:
        return bytearray(b"\x01") * n, range(n)
    mask = vertex_mask(graph, within)
    if mask is not None:
        return bytearray(mask.tobytes()), mask.nonzero()[0].tolist()
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
        # Non-integer objects in the subset: mirror the dict backend —
        # anything hash-equal to an in-range int aliases that vertex,
        # everything else is silently dropped.  Restart with the
        # coercing loop since the fast pass may have stopped midway.
        alive = bytearray(n)
        members = []
        for v in within:
            v = graph._vertex_id(v)
            if v is not None and not alive[v]:
                alive[v] = 1
                members.append(v)
    return alive, members


def _induced_degree_lists(graph, layer_tuple, alive, members, full,
                          use_set_cache=True):
    """Per-layer degree lists restricted to the alive flags.

    Strategies with the same result: when most of the graph is alive
    (the common case for search bounds and potentials) copy the cached
    full-graph degrees and subtract each dead vertex's incidence —
    O(n + sum deg(dead)); otherwise count alive neighbours per member —
    via C-speed set intersections by default, or via a plain flag walk
    with ``use_set_cache=False`` for cold paths that should not
    materialise the per-layer neighbour-set cache.  Entries for dead
    vertices are garbage either way; the peel kernels never read them.
    """
    if full:
        return [list(graph._degree_list(layer)) for layer in layer_tuple]
    n = graph.num_vertices
    degree_lists = []
    if 2 * len(members) > n:
        dead = [v for v in range(n) if not alive[v]]
        for layer in layer_tuple:
            indptr = graph._indptr_list(layer)
            nbrs = graph._neighbor_list(layer)
            degrees = list(graph._degree_list(layer))
            for w in dead:
                for u in nbrs[indptr[w]:indptr[w + 1]]:
                    degrees[u] -= 1
            degree_lists.append(degrees)
        return degree_lists
    if use_set_cache:
        member_set = set(members)
        for layer in layer_tuple:
            neighbor_sets = graph._neighbor_sets(layer)
            degrees = [0] * n
            for v in members:
                degrees[v] = len(neighbor_sets[v] & member_set)
            degree_lists.append(degrees)
        return degree_lists
    flag = alive.__getitem__
    for layer in layer_tuple:
        indptr = graph._indptr_list(layer)
        nbrs = graph._neighbor_list(layer)
        degrees = [0] * n
        for v in members:
            degrees[v] = sum(map(flag, nbrs[indptr[v]:indptr[v + 1]]))
        degree_lists.append(degrees)
    return degree_lists


def frozen_layer_core(graph, layer, d, within=None):
    """Single-layer d-core on the CSR representation; a set of ids.

    Dispatches on the graph's kernel tier: the numpy gather/scatter
    kernel (:func:`repro.graph.kernels.np_layer_core`) when active,
    otherwise the pure-Python cascade below, whose bucket-free FIFO
    mirrors :func:`repro.core.dcore.d_core` exactly with ``bytearray``
    flags in place of the ``alive`` and ``in_queue`` sets and flat lists
    in place of the degree dict.  Both tiers return the same set.
    """
    check_degree(d)
    graph._check_layer(layer)
    if graph.kernel == "numpy":
        from repro.graph.kernels import np_layer_core

        return np_layer_core(graph, layer, d, within=within)
    alive, members = _alive_members(graph, within)
    if d == 0:
        return set(members)
    (degrees,) = _induced_degree_lists(
        graph, (layer,), alive, members, full=within is None
    )
    indptr = graph._indptr_list(layer)
    nbrs = graph._neighbor_list(layer)
    queue = [v for v in members if degrees[v] < d]
    # No explicit in-queue flags: a vertex enqueues exactly when its
    # degree transitions onto d-1, which happens at most once because
    # degrees only ever decrease.  Vertices below d from the start are
    # seeded above and can never hit the transition again.
    trigger = d - 1
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        alive[v] = 0
        for u in nbrs[indptr[v]:indptr[v + 1]]:
            if alive[u]:
                new_degree = degrees[u] - 1
                degrees[u] = new_degree
                if new_degree == trigger:
                    queue.append(u)
    return {v for v in members if alive[v]}


def frozen_coherent_core(graph, layer_tuple, d, within=None, stats=None):
    """Multi-layer cascade peel on the CSR representation; a frozenset.

    Mirrors :func:`repro.core.dcc.coherent_core` (same peel counters,
    same unique fixed point, same validation) with flat-array state.
    Dispatches to :func:`repro.graph.kernels.np_coherent_core` when the
    graph's numpy kernel tier is active — same fixed point, same
    ``peel_operations`` count (one per removed vertex).
    """
    check_degree(d)
    for layer in layer_tuple:
        graph._check_layer(layer)
    if graph.kernel == "numpy":
        from repro.graph.kernels import np_coherent_core

        return np_coherent_core(graph, layer_tuple, d, within=within,
                                stats=stats)
    alive, members = _alive_members(graph, within)
    if d == 0:
        return frozenset(members)
    degree_lists = _induced_degree_lists(
        graph, layer_tuple, alive, members, full=within is None
    )
    per_layer = [
        (graph._indptr_list(layer), graph._neighbor_list(layer), degrees)
        for layer, degrees in zip(layer_tuple, degree_lists)
    ]
    queue = []
    queued = bytearray(graph.num_vertices)
    for v in members:
        for degrees in degree_lists:
            if degrees[v] < d:
                queue.append(v)
                queued[v] = 1
                break
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        alive[v] = 0
        if stats is not None:
            stats.peel_operations += 1
        for indptr, nbrs, degrees in per_layer:
            for u in nbrs[indptr[v]:indptr[v + 1]]:
                if alive[u] and not queued[u]:
                    new_degree = degrees[u] - 1
                    degrees[u] = new_degree
                    if new_degree < d:
                        queue.append(u)
                        queued[u] = 1
    return frozenset(v for v in members if alive[v])
