"""The sharded graph: one backend-protocol view over N graph shards.

:class:`ShardedGraph` is the third implementation of the graph backend
protocol (see :mod:`repro.graph.backend`): the same frozen CSR data,
cut by a :class:`~repro.shard.partition.Partitioner` into independently
shippable :class:`~repro.shard.partition.GraphShard` blocks, each served
by its own :class:`~repro.shard.executor.ShardExecutor`.  The search
stack never notices — every query primitive it speaks either routes to
the one executor owning the row, or fans out and merges:

* **plan** — each peel derives its participant set from the installed
  :class:`~repro.parallel.plan.ShardPlan` (which shards own which
  layers);
* **execute** — participants fill induced degrees for their block and
  walk peel frontiers, emitting degree decrements (*scatter*);
* **merge** — the coordinator applies decrements to its global degree
  tables, grows the next frontier, and repeats to quiescence (*gather*).

Determinism contract
--------------------
The d-core / d-CC peel is a monotone fixed point: removals only ever
cascade more removals, so *any* removal order — per-vertex FIFO on one
engine, synchronous whole-frontier rounds across N shards — converges to
the same unique maximal core.  ``peel_operations`` counts one per
removed vertex in both schemes (a vertex joins exactly one frontier),
and every other search counter is set-level, so a sharded search returns
sets, labels, cover **and stats** bitwise identical to the unsharded
run, for every shard count and either partitioning strategy
(property-tested in ``tests/test_shard.py``).  Degrees at shard
boundaries are exact because shard rows are halo-complete (see
:mod:`repro.shard.partition`).

Like the frozen backend, a sharded graph is immutable
(``mutation_version == 0``) and speaks dense integer ids, translating
back through :attr:`labels` at delivery time.  ``is_frozen`` is False —
the CSR fast paths of :mod:`repro.core` assume whole-graph arrays — and
the ``is_sharded`` marker routes :func:`repro.core.dcc.coherent_core`
and :func:`repro.core.dcore.layer_core` here instead.
"""

import sys
from bisect import bisect_right

from repro.shard.executor import ShardExecutor
from repro.shard.partition import Partitioner
from repro.utils.errors import LayerIndexError, VertexError, check_degree


class ShardedGraph:
    """N :class:`GraphShard` blocks behind the one-graph protocol.

    Build one with :meth:`from_frozen` (what :class:`ShardedEngine`
    does at bind time) or :meth:`from_payload` (what a pooled worker
    does with the serialized form).
    """

    __slots__ = (
        "name", "labels", "strategy",
        "_n", "_num_layers", "_layer_masks", "_edge_counts",
        "shards", "executors",
        "_starts", "_layer_owner", "_vertex_set", "_adj_dicts",
        "_union_edges", "_plan", "_default_plan",
        "merges", "peel_rounds", "plans_installed",
    )

    def __init__(self, name, labels, num_layers, layer_masks, edge_counts,
                 shards, strategy):
        self.name = name
        self.labels = labels
        self.strategy = strategy
        self._n = len(labels)
        self._num_layers = num_layers
        self._layer_masks = layer_masks
        self._edge_counts = edge_counts
        self.shards = list(shards)
        self.executors = [ShardExecutor(shard) for shard in self.shards]
        # Owner routing: vertex-range shards are located by bisect over
        # their start ids; layer-subset shards by a layer -> shard map.
        self._starts = [shard.lo for shard in self.shards]
        self._layer_owner = {}
        for executor in self.executors:
            for layer in executor.shard.layers:
                self._layer_owner.setdefault(layer, []).append(executor)
        self._vertex_set = None
        self._adj_dicts = [None] * num_layers
        self._union_edges = None
        # The execution pipeline always runs against a ShardPlan; the
        # default covers every shard/layer, and the engine swaps in a
        # per-query plan around each search (see ShardedEngine._start).
        from repro.parallel.plan import plan_shard_tasks

        self._default_plan = plan_shard_tasks(self)
        self._plan = self._default_plan
        self.merges = 0
        self.peel_rounds = 0
        self.plans_installed = 0

    # ------------------------------------------------------------------
    # construction / serialization
    # ------------------------------------------------------------------

    @classmethod
    def from_frozen(cls, graph, shards, strategy="vertex-range"):
        """Partition a frozen graph into a sharded view of the same data.

        The coordinator keeps only O(n) metadata (labels, layer
        bitmasks, edge counts); the CSR rows live exclusively in the
        shards.
        """
        blocks = Partitioner(shards, strategy=strategy).partition(graph)
        labels = graph.labels
        if type(labels) is not range:
            labels = list(labels)
        return cls(
            graph.name, labels, graph.num_layers,
            list(graph._layer_masks), list(graph._edge_counts),
            blocks, strategy,
        )

    def payload(self):
        """The picklable cross-process form (see ``parallel.serialize``)."""
        return (
            "sharded", self.name, self.labels, self._num_layers,
            list(self._layer_masks), list(self._edge_counts),
            self.strategy,
            [shard.payload() for shard in self.shards],
        )

    @classmethod
    def from_payload(cls, payload):
        from repro.shard.partition import GraphShard

        (_, name, labels, num_layers, layer_masks, edge_counts, strategy,
         shard_payloads) = payload
        return cls(
            name, labels, num_layers, layer_masks, edge_counts,
            [GraphShard.from_payload(p) for p in shard_payloads],
            strategy,
        )

    # ------------------------------------------------------------------
    # identity / markers
    # ------------------------------------------------------------------

    @property
    def is_frozen(self):
        """False: no whole-graph CSR arrays exist for the frozen fast
        paths to index (the rows are distributed)."""
        return False

    @property
    def is_sharded(self):
        """The dispatch marker :mod:`repro.core` routes peels on."""
        return True

    @property
    def mutation_version(self):
        """Always ``0`` — shards are cut from an immutable frozen graph."""
        return 0

    @property
    def num_shards(self):
        return len(self.shards)

    @property
    def num_layers(self):
        return self._num_layers

    @property
    def num_vertices(self):
        return self._n

    # ------------------------------------------------------------------
    # label translation (mirrors the frozen backend)
    # ------------------------------------------------------------------

    def label_of(self, vertex):
        return self.labels[self._require_vertex(vertex)]

    def labels_for(self, vertices):
        labels = self.labels
        return frozenset(labels[v] for v in vertices)

    # ------------------------------------------------------------------
    # backend protocol: basic accessors
    # ------------------------------------------------------------------

    def vertices(self):
        """A new set of all vertex ids, ``{0, ..., n-1}``."""
        return set(range(self._n))

    def vertex_set(self):
        """A cached frozenset of all vertex ids (do not mutate)."""
        if self._vertex_set is None:
            self._vertex_set = frozenset(range(self._n))
        return self._vertex_set

    def _vertex_id(self, vertex):
        """Dense id coercion, identical to the frozen backend's rule."""
        if isinstance(vertex, int):
            return vertex if 0 <= vertex < self._n else None
        try:
            as_int = int(vertex)
        except (TypeError, ValueError, OverflowError):
            return None
        if as_int == vertex and 0 <= as_int < self._n:
            return as_int
        return None

    def has_vertex(self, vertex):
        return self._vertex_id(vertex) is not None

    def __contains__(self, vertex):
        return self.has_vertex(vertex)

    def __len__(self):
        return self._n

    def __iter__(self):
        return iter(range(self._n))

    def layers(self):
        return range(self._num_layers)

    def _check_layer(self, layer):
        if not 0 <= layer < self._num_layers:
            raise LayerIndexError(layer, self._num_layers)

    def _require_vertex(self, vertex):
        vertex_id = self._vertex_id(vertex)
        if vertex_id is None:
            raise VertexError(vertex)
        return vertex_id

    # ------------------------------------------------------------------
    # owner routing
    # ------------------------------------------------------------------

    def _owner(self, layer, vertex):
        """The executor owning ``(layer, vertex)``'s row."""
        owners = self._layer_owner[layer]
        if len(owners) == 1:
            return owners[0]
        return owners[bisect_right(self._starts, vertex) - 1]

    def _participants(self, layer):
        """Executors the active plan routes ``layer``'s peel work to."""
        return self._plan.executors_for(self, layer)

    # ------------------------------------------------------------------
    # backend protocol: queries
    # ------------------------------------------------------------------

    def degree(self, layer, vertex):
        self._check_layer(layer)
        vertex = self._require_vertex(vertex)
        return self._owner(layer, vertex).degree(layer, vertex)

    def neighbors(self, layer, vertex):
        """The neighbour ids of ``vertex`` on ``layer`` as a frozenset."""
        self._check_layer(layer)
        vertex = self._require_vertex(vertex)
        return frozenset(self._owner(layer, vertex).row(layer, vertex))

    def neighbor_row(self, layer):
        """A per-layer row accessor routing each lookup to its owner.

        When one shard owns the whole layer (the layer-subset strategy)
        the owner's accessor is returned directly; otherwise a closure
        bisects the vertex-range bounds per call.
        """
        self._check_layer(layer)
        owners = self._layer_owner[layer]
        if len(owners) == 1:
            executor = owners[0]

            def row(vertex):
                return executor.row(layer, vertex)

            return row
        starts = self._starts

        def row(vertex):
            return owners[bisect_right(starts, vertex) - 1].row(
                layer, vertex
            )

        return row

    def adjacency(self, layer):
        """A read-only ``{id: frozenset}`` dict of one layer (cached).

        The same compatibility path the frozen backend offers for
        dict-shaped consumers; gathered once from every shard serving
        the layer.
        """
        self._check_layer(layer)
        cached = self._adj_dicts[layer]
        if cached is None:
            cached = {}
            for executor in self._layer_owner[layer]:
                shard = executor.shard
                ptr, nbrs = shard.row_lists(layer)
                for v in range(shard.lo, shard.hi):
                    i = v - shard.lo
                    cached[v] = frozenset(nbrs[ptr[i]:ptr[i + 1]])
            self._adj_dicts[layer] = cached
        return cached

    def induced_degrees(self, layer, within=None):
        """``{v: deg within the subset}`` gathered across participants."""
        self._check_layer(layer)
        n = self._n
        out = [0] * n
        if within is None:
            for executor in self._participants(layer):
                executor.fill_degrees(layer, out, None, range(n), True)
            self.merges += 1
            return {v: out[v] for v in range(n)}
        alive, members = self._alive_members(within)
        for executor in self._participants(layer):
            executor.fill_degrees(layer, out, alive, members, False)
        self.merges += 1
        return {v: out[v] for v in members}

    def layer_mask(self, vertex):
        return self._layer_masks[self._require_vertex(vertex)]

    def layers_of(self, vertex):
        mask = self.layer_mask(vertex)
        return frozenset(
            layer for layer in range(self._num_layers) if mask >> layer & 1
        )

    def num_edges(self, layer):
        self._check_layer(layer)
        return self._edge_counts[layer]

    def total_edges(self):
        return sum(self._edge_counts)

    def edges(self, layer):
        """Yield each edge once as ``(u, v)`` with ``u < v``.

        Each edge is reported by the shard owning its smaller endpoint,
        so the union over shards is exactly the layer's edge set.
        """
        self._check_layer(layer)
        for executor in self._layer_owner[layer]:
            shard = executor.shard
            ptr, nbrs = shard.row_lists(layer)
            for v in range(shard.lo, shard.hi):
                i = v - shard.lo
                for u in nbrs[ptr[i]:ptr[i + 1]]:
                    if v < u:
                        yield (v, u)

    def union_edge_count(self):
        if self._union_edges is None:
            n = self._n
            seen = set()
            for layer in self.layers():
                for u, v in self.edges(layer):
                    seen.add(u * n + v)
            self._union_edges = len(seen)
        return self._union_edges

    def summary(self):
        return {
            "name": self.name,
            "vertices": self._n,
            "total_edges": self.total_edges(),
            "union_edges": self.union_edge_count(),
            "layers": self._num_layers,
        }

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------

    def memory_bytes(self):
        """Honest total: every shard plus the coordinator's metadata."""
        total = sum(shard.memory_bytes() for shard in self.shards)
        total += sys.getsizeof(self.labels)
        if type(self.labels) is not range:
            total += sum(sys.getsizeof(label) for label in self.labels)
        total += sys.getsizeof(self._layer_masks)
        for adj in self._adj_dicts:
            if adj is not None:
                total += sys.getsizeof(adj)
                total += sum(sys.getsizeof(s) for s in adj.values())
        return total

    def budget_bytes(self):
        """The admission-control charge: the largest single shard.

        Sharding exists so no one engine must hold the whole graph; the
        host therefore budgets the biggest block any one executor keeps
        resident, not the sum (which :meth:`memory_bytes` still reports
        honestly).
        """
        if not self.shards:
            return 0
        return max(shard.memory_bytes() for shard in self.shards)

    # ------------------------------------------------------------------
    # plan installation (the engine's per-query hook)
    # ------------------------------------------------------------------

    def install_plan(self, plan):
        """Make ``plan`` the routing source for subsequent peels."""
        self._plan = plan if plan is not None else self._default_plan
        if plan is not None:
            self.plans_installed += 1

    @property
    def active_plan(self):
        return self._plan

    # ------------------------------------------------------------------
    # the scatter/gather peel (execute + merge stages)
    # ------------------------------------------------------------------

    def _alive_members(self, within):
        """``(alive flags, member sequence)`` — the frozen kernel's rule.

        Mirrors ``repro.graph.frozen._alive_members``: a fast in-range
        pass with a coercing fallback for subsets containing non-integer
        objects, dropping anything that aliases no vertex.
        """
        n = self._n
        if within is None:
            return bytearray(b"\x01") * n, range(n)
        if not isinstance(within, (set, frozenset, list, tuple, range,
                                   dict)):
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
            alive = bytearray(n)
            members = []
            for v in within:
                v = self._vertex_id(v)
                if v is not None and not alive[v]:
                    alive[v] = 1
                    members.append(v)
        return alive, members

    def _peel(self, layer_tuple, d, within, stats):
        """Synchronous-round distributed peel to the unique fixed point.

        Returns ``(alive, members)``; the caller materialises the
        surviving set.  Round structure: mark the whole frontier dead,
        have every participant scatter the decrements its rows imply,
        gather them into the global degree tables, and queue vertices
        falling below ``d`` for the next round.  ``peel_operations``
        counts one per removed vertex, exactly as the single-engine
        kernels do.
        """
        alive, members = self._alive_members(within)
        n = self._n
        full = within is None
        participants = {
            layer: self._participants(layer) for layer in layer_tuple
        }
        degrees = {}
        for layer in layer_tuple:
            table = [0] * n
            for executor in participants[layer]:
                executor.fill_degrees(layer, table, alive, members, full)
            degrees[layer] = table
        self.merges += len(layer_tuple)

        queued = bytearray(n)
        frontier = []
        tables = [degrees[layer] for layer in layer_tuple]
        for v in members:
            for table in tables:
                if table[v] < d:
                    frontier.append(v)
                    queued[v] = 1
                    break
        rounds = 0
        while frontier:
            rounds += 1
            if stats is not None:
                stats.peel_operations += len(frontier)
            for v in frontier:
                alive[v] = 0
            next_frontier = []
            for layer in layer_tuple:
                table = degrees[layer]
                for executor in participants[layer]:
                    for u in executor.scatter(layer, frontier, alive):
                        if not queued[u]:
                            value = table[u] - 1
                            table[u] = value
                            if value < d:
                                queued[u] = 1
                                next_frontier.append(u)
            frontier = next_frontier
        self.peel_rounds += rounds
        return alive, members

    def layer_core(self, layer, d, within=None):
        """Single-layer d-core (a set of ids), distributed peel."""
        check_degree(d)
        self._check_layer(layer)
        if d == 0:
            _, members = self._alive_members(within)
            return set(members)
        alive, members = self._peel((layer,), d, within, None)
        return {v for v in members if alive[v]}

    def coherent_core(self, layer_tuple, d, within=None, stats=None):
        """Multi-layer d-CC (a frozenset of ids), distributed peel.

        Called from :func:`repro.core.dcc.coherent_core` after layer
        normalisation and the ``dcc_calls`` increment, mirroring the
        frozen kernel's position in that pipeline.
        """
        check_degree(d)
        for layer in layer_tuple:
            self._check_layer(layer)
        if d == 0:
            _, members = self._alive_members(within)
            return frozenset(members)
        alive, members = self._peel(layer_tuple, d, within, stats)
        return frozenset(v for v in members if alive[v])

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def shard_stats(self):
        """The ``shards`` observability section (info / serving stats)."""
        per_shard = []
        for executor in self.executors:
            shard = executor.shard
            entry = {
                "index": shard.index,
                "vertices": shard.num_owned,
                "layers": list(shard.layers),
                "halo_vertices": shard.halo_vertices(),
                "memory_bytes": shard.memory_bytes(),
            }
            entry.update(executor.counters())
            per_shard.append(entry)
        return {
            "shards": len(self.shards),
            "strategy": self.strategy,
            "merges": self.merges,
            "peel_rounds": self.peel_rounds,
            "plans_installed": self.plans_installed,
            "budget_bytes": self.budget_bytes(),
            "per_shard": per_shard,
        }

    def __repr__(self):
        label = " {!r}".format(self.name) if self.name else ""
        return ("ShardedGraph({} shards, {}, {} layers, {} vertices, "
                "{} edges{})").format(
            len(self.shards), self.strategy, self._num_layers, self._n,
            self.total_edges(), label,
        )
