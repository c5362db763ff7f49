"""The multi-layer graph substrate (Section II of the paper).

A multi-layer graph ``G = (V, E_1, ..., E_l)`` is a universal vertex set
``V`` shared by ``l`` simple undirected edge sets.  The paper assumes every
layer contains the same vertices (a vertex missing from a layer is treated
as isolated there); :class:`MultiLayerGraph` enforces that invariant by
construction — adding a vertex adds it to every layer, and adding an edge
implicitly adds its endpoints.

The representation is one adjacency dictionary per layer mapping each vertex
to a :class:`set` of neighbours.  This gives O(1) expected-time edge tests,
O(deg) neighbourhood iteration and O(1) degree queries, which is what
incremental builders and the per-vertex checks of the baselines need.

Vertices may be any hashable object (ints, strings, tuples).  Self-loops are
rejected because the degree-based definitions in the paper are stated for
simple graphs.

This class is the mutable builder and delta log of the graph protocol
(:mod:`repro.graph.backend`).  Searches run on the immutable CSR graph
(:class:`~repro.graph.frozen.FrozenMultiLayerGraph`) that
:meth:`MultiLayerGraph.freeze` builds and caches; ``thaw()`` converts
back.  Input is checked where it enters: a layer must be an integer in
range and a vertex hashable, so a wrong-typed edge raises a
:class:`~repro.utils.errors.GraphError` before the graph changes.
"""

from numbers import Integral
import sys

from repro.graph.delta import GraphDelta, cancel_or_add, merge_entries
from repro.utils.errors import (
    EdgeError,
    LayerIndexError,
    ParameterError,
    VertexError,
)

# How many mutation batches the delta log remembers.  A consumer whose
# snapshot predates the oldest remembered batch gets ``None`` from
# ``delta_since`` and falls back to a full rebuild, so the cap bounds
# memory without ever affecting correctness.
_DELTA_LOG_CAP = 64

# ``freeze()`` patches its cached CSR conversion instead of rebuilding
# it when at most this fraction of the layers changed — per-layer
# rebuild work is identical either way, so the patch wins exactly when
# untouched layers dominate.
_PATCH_MAX_LAYER_FRACTION = 0.5


def _check_hashable(vertex):
    """Reject an unhashable vertex with :class:`ParameterError`."""
    try:
        hash(vertex)
    except TypeError:
        raise ParameterError(
            "a vertex must be hashable, got {!r}".format(vertex)
        ) from None


def _edge_triple(edge):
    """``edge`` as a ``(layer, u, v)`` tuple; anything else is rejected."""
    try:
        triple = tuple(edge)
    except TypeError:
        triple = None
    if triple is None or len(triple) != 3:
        raise ParameterError(
            "an edge must be a (layer, u, v) triple, got {!r}".format(edge)
        )
    return triple


class _MutationBatch:
    """One ``with graph.update():`` scope; see :meth:`MultiLayerGraph.update`.

    Records net edge events (with add/remove cancellation) and a
    structural flag while open; on exit of the *outermost* scope the
    graph's ``mutation_version`` ticks exactly once and the batch lands
    in the delta log.  Nested scopes delegate to the outermost one.
    """

    __slots__ = ("_graph", "_owner", "added", "removed", "structural")

    def __init__(self, graph):
        self._graph = graph
        self._owner = False
        self.added = set()
        self.removed = set()
        self.structural = False

    def __enter__(self):
        if self._graph._batch is None:
            self._graph._batch = self
            self._owner = True
        return self

    def __exit__(self, *exc):
        if self._owner:
            self._graph._batch = None
            # Commit even when the batch body raised: any mutations that
            # did land must tick the version — a session snapshot must
            # never survive a half-applied batch.
            self._graph._commit_batch(self)
        return False


class MultiLayerGraph:
    """An undirected multi-layer graph with a shared vertex set.

    Parameters
    ----------
    num_layers:
        Number of layers ``l >= 1``.  Fixed at construction time.
    vertices:
        Optional iterable of initial vertices.
    name:
        Optional human-readable name used in ``repr`` and experiment tables.

    Examples
    --------
    >>> g = MultiLayerGraph(2, vertices=["a", "b", "c"])
    >>> g.add_edge(0, "a", "b")
    >>> g.add_edge(1, "b", "c")
    >>> sorted(g.neighbors(0, "a"))
    ['b']
    >>> g.degree(1, "b")
    1
    """

    __slots__ = ("_adj", "_vertices", "_edge_counts", "_frozen_cache",
                 "_frozen_version", "_vset_cache", "_version", "_batch",
                 "_delta_log", "freeze_patches", "freeze_rebuilds", "name")

    def __init__(self, num_layers, vertices=(), name=""):
        if isinstance(num_layers, bool) or \
                not isinstance(num_layers, Integral):
            raise ParameterError(
                "num_layers must be an integer, got {!r}".format(num_layers)
            )
        if num_layers < 1:
            raise ParameterError(
                "a multi-layer graph needs at least one layer, got {}".format(num_layers)
            )
        self._vertices = set()
        self._adj = [dict() for _ in range(num_layers)]
        self._edge_counts = [0] * num_layers
        self._frozen_cache = None
        self._frozen_version = -1
        self._vset_cache = None
        self._version = 0
        self._batch = None
        self._delta_log = []
        self.freeze_patches = 0
        self.freeze_rebuilds = 0
        self.name = name
        self.add_vertices(vertices)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def is_frozen(self):
        """``False`` — searches freeze this graph first."""
        return False

    @property
    def mutation_version(self):
        """A counter that ticks on every mutation.

        The same events that invalidate the cached ``freeze()`` result
        bump this counter, which gives session layers (notably
        :class:`repro.engine.DCCEngine`) an O(1) staleness check for any
        artifact they derived from a snapshot of this graph.
        """
        return self._version

    @property
    def num_layers(self):
        """The number of layers ``l(G)``."""
        return len(self._adj)

    @property
    def num_vertices(self):
        """The size of the universal vertex set ``|V(G)|``."""
        return len(self._vertices)

    def vertices(self):
        """Return a new set with all vertices of the graph."""
        return set(self._vertices)

    def vertex_set(self):
        """A cached frozenset of all vertices (immutable, like the frozen
        graph's), so no caller can corrupt the graph through it."""
        if self._vset_cache is None:
            self._vset_cache = frozenset(self._vertices)
        return self._vset_cache

    def has_vertex(self, vertex):
        """Whether ``vertex`` is in the graph (``in`` works too)."""
        return vertex in self._vertices

    def __contains__(self, vertex):
        return vertex in self._vertices

    def __len__(self):
        return len(self._vertices)

    def __iter__(self):
        return iter(self._vertices)

    def layers(self):
        """Return ``range(num_layers)`` — the valid layer indices."""
        return range(self.num_layers)

    def _check_layer(self, layer):
        if not 0 <= layer < self.num_layers:
            raise LayerIndexError(layer, self.num_layers)

    def _check_vertex(self, vertex):
        if vertex not in self._vertices:
            raise VertexError(vertex)

    def _check_edge(self, layer, u, v):
        """Check an edge given by a caller: an integer layer (not a
        bool) in range and two hashable endpoints.  Not folded into
        :meth:`_check_layer`, which the queries run once per vertex."""
        if type(layer) is not int and (isinstance(layer, bool)
                                       or not isinstance(layer, Integral)):
            raise ParameterError(
                "a layer must be an integer, got {!r}".format(layer)
            )
        self._check_layer(layer)
        _check_hashable(u)
        _check_hashable(v)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def update(self):
        """Open a batched-mutation scope: one version tick per batch.

        Every mutation inside the ``with`` block is recorded into one
        :class:`~repro.graph.delta.GraphDelta` and ``mutation_version``
        ticks exactly *once* when the outermost scope exits (not at all
        if the batch nets out to a no-op), so a K-edge stream costs
        session layers one rebind instead of K::

            with graph.update():
                graph.add_edge(0, "a", "b")
                graph.remove_edge(1, "c", "d")

        Scopes nest (the bulk mutators open one internally); only the
        outermost commit ticks.  Reads inside an open batch see the
        mutated adjacency, but version-gated caches (``freeze()``) treat
        the batch as not-yet-happened until it commits.
        """
        return _MutationBatch(self)

    def apply_delta(self, add=(), remove=()):
        """Apply mixed edge inserts and deletes as one batch.

        ``add`` and ``remove`` are iterables of ``(layer, u, v)``
        triples.  Removals are validated (``EdgeError`` on a missing
        edge) *before* any mutation is applied, so a rejected delta
        never half-applies; insertions may create endpoints (which makes
        the batch structural).  Returns the net
        :class:`~repro.graph.delta.GraphDelta` recorded for the batch,
        or ``None`` when it netted out to nothing.
        """
        add = [_edge_triple(edge) for edge in add]
        remove = [_edge_triple(edge) for edge in remove]
        # Validate the whole batch against a simulated overlay before
        # touching the graph.  Adds apply before removes, so a removal
        # may legally name an edge (or endpoint) the batch itself
        # creates; duplicate removals of one edge are rejected.
        overlay = {}
        created = set()

        def _edge_present(layer, u, v):
            for key in ((layer, u, v), (layer, v, u)):
                if key in overlay:
                    return key, overlay[key]
            present = (u in self._vertices and v in self._vertices
                       and self.has_edge(layer, u, v))
            return (layer, u, v), present

        for layer, u, v in add:
            self._check_edge(layer, u, v)
            if u == v:
                raise ParameterError(
                    "self-loop ({0!r}, {0!r}) is not allowed".format(u))
            created.add(u)
            created.add(v)
            key, _ = _edge_present(layer, u, v)
            overlay[key] = True
        for layer, u, v in remove:
            self._check_edge(layer, u, v)
            if u not in self._vertices and u not in created:
                raise VertexError(u)
            if v not in self._vertices and v not in created:
                raise VertexError(v)
            key, present = _edge_present(layer, u, v)
            if not present:
                raise EdgeError(layer, u, v)
            overlay[key] = False
        before = self._version
        with self.update():
            for layer, u, v in add:
                self.add_edge(layer, u, v)
            for layer, u, v in remove:
                self.remove_edge(layer, u, v)
        if self._version == before:
            return None
        return self.delta_since(before)

    def add_vertex(self, vertex):
        """Add ``vertex`` to every layer (isolated where no edges exist)."""
        _check_hashable(vertex)
        if vertex not in self._vertices:
            self._vertices.add(vertex)
            for adj in self._adj:
                adj[vertex] = set()
            self._vset_cache = None
            self._record_structural()

    def add_vertices(self, vertices):
        """Add every vertex from the iterable ``vertices`` (one batch)."""
        with self.update():
            for vertex in vertices:
                self.add_vertex(vertex)

    def add_edge(self, layer, u, v):
        """Add the undirected edge ``(u, v)`` on ``layer``.

        Endpoints are created if absent.  Adding an existing edge is a no-op;
        self-loops raise :class:`ParameterError`.
        """
        self._check_edge(layer, u, v)
        if u == v:
            raise ParameterError("self-loop ({0!r}, {0!r}) is not allowed".format(u))
        if self._batch is not None:
            self._add_edge_batched(layer, u, v)
        else:
            # One version tick even when the edge creates its endpoints.
            with self.update():
                self._add_edge_batched(layer, u, v)

    def _add_edge_batched(self, layer, u, v):
        self.add_vertex(u)
        self.add_vertex(v)
        neighbors = self._adj[layer][u]
        if v not in neighbors:
            neighbors.add(v)
            self._adj[layer][v].add(u)
            self._edge_counts[layer] += 1
            self._record_edge_added(layer, u, v)

    def add_edges(self, layer, edges):
        """Add every ``(u, v)`` pair from ``edges`` on ``layer`` (one batch)."""
        with self.update():
            for u, v in edges:
                self.add_edge(layer, u, v)

    def remove_edge(self, layer, u, v):
        """Remove the edge ``(u, v)`` from ``layer``; missing edges error.

        Validates *before* touching either adjacency set — a missing
        edge raises :class:`~repro.utils.errors.EdgeError` with the
        graph unchanged, never half-applied.
        """
        self._check_edge(layer, u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if not self.has_edge(layer, u, v):
            raise EdgeError(layer, u, v)
        self._adj[layer][u].remove(v)
        self._adj[layer][v].remove(u)
        self._edge_counts[layer] -= 1
        self._record_edge_removed(layer, u, v)

    def remove_vertex(self, vertex):
        """Remove ``vertex`` and all its incident edges from every layer."""
        self._check_vertex(vertex)
        for layer, adj in enumerate(self._adj):
            for neighbor in adj[vertex]:
                adj[neighbor].remove(vertex)
            self._edge_counts[layer] -= len(adj[vertex])
            del adj[vertex]
        self._vertices.remove(vertex)
        self._vset_cache = None
        self._record_structural()

    def remove_vertices(self, vertices):
        """Remove every vertex in the iterable ``vertices`` (one batch)."""
        with self.update():
            for vertex in list(vertices):
                self.remove_vertex(vertex)

    # ------------------------------------------------------------------
    # mutation bookkeeping (version ticks + the delta log)
    # ------------------------------------------------------------------

    def _record_edge_added(self, layer, u, v):
        batch = self._batch
        if batch is not None:
            cancel_or_add(batch.added, batch.removed, layer, u, v)
            return
        self._version += 1
        self._log_entry((self._version - 1, self._version,
                         ((layer, u, v),), (), False))

    def _record_edge_removed(self, layer, u, v):
        batch = self._batch
        if batch is not None:
            cancel_or_add(batch.removed, batch.added, layer, u, v)
            return
        self._version += 1
        self._log_entry((self._version - 1, self._version,
                         (), ((layer, u, v),), False))

    def _record_structural(self):
        batch = self._batch
        if batch is not None:
            batch.structural = True
            return
        self._version += 1
        self._log_entry((self._version - 1, self._version, (), (), True))

    def _commit_batch(self, batch):
        """Outermost-scope exit: tick once and log the net delta."""
        if not (batch.added or batch.removed or batch.structural):
            return
        self._version += 1
        self._log_entry((self._version - 1, self._version,
                         tuple(batch.added), tuple(batch.removed),
                         batch.structural))

    def _log_entry(self, entry):
        log = self._delta_log
        log.append(entry)
        if len(log) > _DELTA_LOG_CAP:
            del log[:len(log) - _DELTA_LOG_CAP]

    def delta_since(self, version):
        """The merged :class:`GraphDelta` from ``version`` to now, or ``None``.

        ``None`` means the history is unknown — ``version`` predates the
        bounded delta log (or never existed) — and the caller must treat
        the graph as arbitrarily changed (full rebuild).  A consumer
        whose snapshot is current should not call this (the result for
        ``version == mutation_version`` is an empty delta).
        """
        if version == self._version:
            return GraphDelta(version, version)
        if version > self._version or version < 0:
            return None
        log = self._delta_log
        start = None
        for index, entry in enumerate(log):
            if entry[0] == version:
                start = index
                break
        if start is None or log[-1][1] != self._version:
            return None
        return merge_entries(version, self._version, log[start:])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def has_edge(self, layer, u, v):
        """Whether the edge ``(u, v)`` exists on ``layer``."""
        self._check_layer(layer)
        neighbors = self._adj[layer].get(u)
        return neighbors is not None and v in neighbors

    def neighbors(self, layer, vertex):
        """The neighbour set ``N_{G_layer}(vertex)`` (a live set — do not mutate)."""
        self._check_layer(layer)
        try:
            return self._adj[layer][vertex]
        except KeyError:
            raise VertexError(vertex) from None

    def degree(self, layer, vertex):
        """The degree ``d_{G_layer}(vertex)``."""
        return len(self.neighbors(layer, vertex))

    def min_degree_over(self, layers, vertex):
        """``min_{i in layers} d_{G_i}(vertex)`` — the m(v) of Appendix B."""
        return min(self.degree(layer, vertex) for layer in layers)

    def induced_degrees(self, layer, within=None):
        """``{v: deg_layer(v) within the subset}`` — the protocol bulk query.

        With ``within=None`` the full-graph degrees are returned.  Vertices
        of ``within`` not present in the graph are silently skipped,
        matching the ``G[S] = G[S ∩ V]`` convention used throughout.
        """
        self._check_layer(layer)
        adj = self._adj[layer]
        if within is None:
            return {v: len(neighbors) for v, neighbors in adj.items()}
        members = within if isinstance(within, (set, frozenset)) else set(within)
        return {v: len(adj[v] & members) for v in members if v in adj}

    def layers_of(self, vertex):
        """The layers on which ``vertex`` has at least one edge."""
        self._check_vertex(vertex)
        return frozenset(
            layer for layer, adj in enumerate(self._adj) if adj[vertex]
        )

    def num_edges(self, layer):
        """The number of edges ``|E_layer|`` on one layer (O(1), cached)."""
        self._check_layer(layer)
        return self._edge_counts[layer]

    def total_edges(self):
        """``sum_i |E_i|`` — total edge count with layer multiplicity."""
        return sum(self._edge_counts)

    def union_edge_count(self):
        """``|union_i E_i|`` — number of distinct vertex pairs with an edge."""
        seen = set()
        for layer in self.layers():
            for u, v in self.edges(layer):
                seen.add((u, v))
        return len(seen)

    def edges(self, layer):
        """Yield each edge of ``layer`` once as a canonically ordered pair."""
        self._check_layer(layer)
        for u, neighbors in self._adj[layer].items():
            for v in neighbors:
                # Emit each undirected edge exactly once.  Hashes order the
                # pair canonically even for non-comparable vertex types.
                if (hash(u), id(u)) < (hash(v), id(v)):
                    yield (u, v)

    def all_edges(self):
        """Yield ``(layer, u, v)`` triples over all layers."""
        for layer in self.layers():
            for u, v in self.edges(layer):
                yield (layer, u, v)

    def adjacency(self, layer):
        """The raw adjacency dict of ``layer`` (read-only by convention).

        The baselines, metrics and analysis read this dictionary
        directly to avoid per-edge method-call overhead.
        """
        self._check_layer(layer)
        return self._adj[layer]

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------

    def copy(self, name=None):
        """Return a deep copy (new adjacency sets, same vertex objects)."""
        other = MultiLayerGraph(
            self.num_layers,
            name=self.name if name is None else name,
        )
        other._vertices = set(self._vertices)
        other._adj = [
            {vertex: set(neighbors) for vertex, neighbors in adj.items()}
            for adj in self._adj
        ]
        other._edge_counts = list(self._edge_counts)
        return other

    def induced_subgraph(self, vertices, name=""):
        """The multi-layer subgraph ``G[S]`` induced by ``vertices``.

        Vertices not present in the graph are ignored, matching the paper's
        convention that ``G[S]`` is defined by ``S ∩ V(G)``.
        """
        keep = set(vertices) & self._vertices
        sub = MultiLayerGraph(self.num_layers, vertices=keep, name=name)
        for layer, adj in enumerate(self._adj):
            sub_adj = sub._adj[layer]
            half_edges = 0
            for vertex in keep:
                kept = adj[vertex] & keep
                sub_adj[vertex] = kept
                half_edges += len(kept)
            sub._edge_counts[layer] = half_edges // 2
        return sub

    def subgraph_of_layers(self, layer_ids, name=""):
        """A new graph containing only the given layers (same vertices).

        Used by the scalability experiment that varies the layer fraction
        ``q`` (Fig. 27).
        """
        layer_ids = list(layer_ids)
        for layer in layer_ids:
            self._check_layer(layer)
        if not layer_ids:
            raise ParameterError("at least one layer must be kept")
        sub = MultiLayerGraph(len(layer_ids), vertices=self._vertices, name=name)
        for new_layer, old_layer in enumerate(layer_ids):
            sub._adj[new_layer] = {
                vertex: set(neighbors)
                for vertex, neighbors in self._adj[old_layer].items()
            }
            sub._edge_counts[new_layer] = self._edge_counts[old_layer]
        return sub

    def freeze(self, name=None):
        """Convert to the immutable CSR graph every search runs on.

        Returns a :class:`~repro.graph.frozen.FrozenMultiLayerGraph` over
        dense integer vertex ids; ``thaw()`` round-trips back to an equal
        graph.  Freeze once, search many times: a search handed this
        graph freezes it through this cache.

        The default-named result is cached.  After a mutation the cached
        CSR is *patched* instead of rebuilt when the recorded delta
        allows it: non-structural (the vertex set — and hence the dense
        id assignment — is unchanged) and touching at most
        ``_PATCH_MAX_LAYER_FRACTION`` of the layers (per-layer CSR rows
        are rebuilt wholesale either way, so patching pays off exactly
        when untouched layers dominate).  A patched freeze is bitwise
        identical to ``from_graph`` on the mutated graph; the
        ``freeze_patches`` / ``freeze_rebuilds`` counters record which
        path ran.
        """
        from repro.graph.frozen import FrozenMultiLayerGraph

        if name is not None:
            return FrozenMultiLayerGraph.from_graph(self, name=name)
        if self._batch is not None:
            # Mid-batch: the version has not ticked yet, so the cache
            # cannot tell this state apart from the pre-batch one.
            return FrozenMultiLayerGraph.from_graph(self)
        cached = self._frozen_cache
        if cached is not None and self._frozen_version == self._version:
            return cached
        patched = None
        if cached is not None:
            delta = self.delta_since(self._frozen_version)
            if delta is not None and not delta.structural:
                touched = delta.touched_layers()
                if (len(touched) <=
                        _PATCH_MAX_LAYER_FRACTION * self.num_layers):
                    patched = cached.patched(self, touched)
        if patched is not None:
            self._frozen_cache = patched
            self.freeze_patches += 1
        else:
            self._frozen_cache = FrozenMultiLayerGraph.from_graph(self)
            self.freeze_rebuilds += 1
        self._frozen_version = self._version
        return self._frozen_cache

    def memory_bytes(self):
        """Rough resident size of the adjacency dictionaries."""
        total = sys.getsizeof(self._vertices)
        total += sum(sys.getsizeof(vertex) for vertex in self._vertices)
        for adj in self._adj:
            total += sys.getsizeof(adj)
            total += sum(sys.getsizeof(neighbors) for neighbors in adj.values())
        return total

    # ------------------------------------------------------------------
    # dunder & debugging helpers
    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiLayerGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    def __ne__(self, other):
        equal = self.__eq__(other)
        return NotImplemented if equal is NotImplemented else not equal

    def __repr__(self):
        label = " {!r}".format(self.name) if self.name else ""
        return "MultiLayerGraph({} layers, {} vertices, {} edges{})".format(
            self.num_layers, self.num_vertices, self.total_edges(), label
        )

    def summary(self):
        """A dict of the Fig. 12 statistics columns for this graph."""
        return {
            "name": self.name,
            "vertices": self.num_vertices,
            "total_edges": self.total_edges(),
            "union_edges": self.union_edge_count(),
            "layers": self.num_layers,
        }

    def validate(self):
        """Check internal consistency; raises :class:`GraphError` on corruption.

        Verifies that adjacency is symmetric, loop-free and confined to the
        vertex set.  Intended for tests and for debugging code that mutates
        :meth:`adjacency` directly.
        """
        for layer, adj in enumerate(self._adj):
            if set(adj) != self._vertices:
                raise VertexError(set(adj) ^ self._vertices)
            half_edges = sum(len(neighbors) for neighbors in adj.values())
            if self._edge_counts[layer] != half_edges // 2:
                raise ParameterError(
                    "cached edge count for layer {} is {} but adjacency "
                    "holds {}".format(
                        layer, self._edge_counts[layer], half_edges // 2
                    )
                )
            for vertex, neighbors in adj.items():
                if vertex in neighbors:
                    raise ParameterError(
                        "self-loop at {!r} on layer {}".format(vertex, layer)
                    )
                for neighbor in neighbors:
                    if neighbor not in self._vertices:
                        raise VertexError(neighbor)
                    if vertex not in adj[neighbor]:
                        raise ParameterError(
                            "asymmetric edge ({!r}, {!r}) on layer {}".format(
                                vertex, neighbor, layer
                            )
                        )
        return True
