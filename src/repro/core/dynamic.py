"""Dynamic maintenance of a d-coherent core under edge updates.

The paper computes d-CCs on static snapshots; its motivating
applications (story identification over a sliding window, interaction
networks growing over time) are naturally *dynamic*.  This module keeps
``C^d_L(G)`` current while edges arrive and depart, using two exact
locality rules:

* **Deletion** of an edge with at least one endpoint outside the core
  never changes the core (the peeling trace that eliminated the outside
  vertices is still valid, and the core itself lost nothing).  Deleting
  an edge *inside* the core can only shrink it, and the shrinkage is the
  cascade peel seeded at the two endpoints.
* **Insertion** of an edge between two core members never changes the
  core (outside vertices were peeled for reasons the new edge does not
  touch).  An insertion with an endpoint outside can only grow the core,
  and the old core never shrinks, so recomputation may start from the
  union of the old core with the affected region.

Both rules are proved by peeling confluence: the d-CC is the unique
fixed point of "delete any vertex violating the degree bound", so any
valid elimination order certifies the result.
"""

from repro.core.dcc import _normalize_layers, coherent_core
from repro.utils.errors import check_degree


class CoherentCoreTracker:
    """Track ``C^d_L`` of a multi-layer graph across edge updates.

    The tracker owns its graph copy — mutate through :meth:`add_edge` /
    :meth:`remove_edge` only, otherwise the cached core goes stale (a
    :meth:`refresh` escape hatch recomputes from scratch).

    Parameters
    ----------
    graph:
        Initial multi-layer graph (deep-copied).
    layers:
        The layer subset ``L`` the tracked core refers to.
    d:
        The degree threshold.

    Examples
    --------
    >>> from repro.graph import replicate_layer
    >>> g = replicate_layer([(0, 1), (1, 2), (0, 2)], 2)
    >>> tracker = CoherentCoreTracker(g, [0, 1], 2)
    >>> sorted(tracker.core)
    [0, 1, 2]
    >>> tracker.remove_edge(0, 0, 1)
    >>> sorted(tracker.core)
    []
    """

    def __init__(self, graph, layers, d):
        check_degree(d)
        self._layers = _normalize_layers(graph, layers)
        self._tracked = frozenset(self._layers)
        self._d = d
        self._graph = graph.copy()
        self._core = coherent_core(self._graph, self._layers, d)
        self.recomputations = 0
        self.incremental_updates = 0

    @property
    def core(self):
        """The current ``C^d_L`` as a frozenset."""
        return self._core

    @property
    def graph(self):
        """The tracked graph (treat as read-only)."""
        return self._graph

    # ------------------------------------------------------------------

    def add_edge(self, layer, u, v):
        """Insert an edge and update the core incrementally."""
        self._graph.add_edge(layer, u, v)
        if layer not in self._tracked:
            return
        if u in self._core and v in self._core:
            # Both endpoints already inside: the old peeling trace for
            # every outside vertex is untouched, so the core is stable.
            self.incremental_updates += 1
            return
        # The core can only grow under insertion, and every vertex it
        # gains is reachable from an endpoint through the affected
        # region, so recomputation restricted to ``old core ∪ region``
        # is exact (see _affected_region for the proof sketch).
        self.recomputations += 1
        seed = self._core | self._affected_region(u, v)
        new_core = coherent_core(self._graph, self._layers, self._d,
                                 within=seed)
        assert self._core <= new_core, (
            "insertion shrank the tracked core — seeded recomputation "
            "violated monotonicity"
        )
        self._core = new_core

    def remove_edge(self, layer, u, v):
        """Delete an edge and update the core incrementally."""
        self._graph.remove_edge(layer, u, v)
        if layer not in self._tracked:
            return
        if u not in self._core or v not in self._core:
            # The lost edge never supported the core's density, and
            # outside vertices only got weaker: nothing changes.
            self.incremental_updates += 1
            return
        # Cascade peel inside the old core, seeded at the endpoints.
        self.incremental_updates += 1
        self._core = self._peel_within_core()

    def refresh(self):
        """Recompute from scratch (after out-of-band graph mutation)."""
        self.recomputations += 1
        self._core = coherent_core(self._graph, self._layers, self._d)
        return self._core

    # ------------------------------------------------------------------

    def _affected_region(self, u, v):
        """Vertices the inserted edge ``(u, v)`` could pull into the core.

        Let ``C'`` be the true core after insertion and ``D = C' \\ C``.
        Deleting the edge back makes every vertex of ``C'`` except
        possibly ``u``/``v`` degree-valid, so peeling ``C'`` in the old
        graph cascades only from the endpoints — and the remainder is a
        valid old-graph core, hence a subset of ``C``.  Every vertex of
        ``D`` is therefore on a cascade path from an endpoint, and every
        cascade vertex is in ``C'``, so its *full-graph* degree is at
        least ``d`` on every tracked layer.  BFS from the endpoints
        through such vertices thus covers ``D``, and restricting the
        recomputation to ``C ∪ region`` is exact.
        """
        graph = self._graph
        d = self._d

        def qualifies(vertex):
            return all(
                graph.degree(layer, vertex) >= d for layer in self._layers
            )

        frontier = [w for w in (u, v) if qualifies(w)]
        region = set(frontier)
        while frontier:
            vertex = frontier.pop()
            for layer in self._layers:
                for neighbor in graph.neighbors(layer, vertex):
                    if neighbor not in region and qualifies(neighbor):
                        region.add(neighbor)
                        frontier.append(neighbor)
        return region

    def _peel_within_core(self):
        """Exact shrink: peel the old core down to the new fixed point.

        Deletion can only shrink the core, and the new core is a subset
        of the old one (the old core minus the cascade), so peeling
        restricted to the old core is exact.
        """
        alive = set(self._core)
        adjacencies = [self._graph.adjacency(layer) for layer in self._layers]
        degrees = [
            {vertex: len(adjacency[vertex] & alive) for vertex in alive}
            for adjacency in adjacencies
        ]
        queue = [
            vertex for vertex in alive
            if any(degree[vertex] < self._d for degree in degrees)
        ]
        queued = set(queue)
        head = 0
        while head < len(queue):
            vertex = queue[head]
            head += 1
            alive.discard(vertex)
            for adjacency, degree in zip(adjacencies, degrees):
                for neighbor in adjacency[vertex]:
                    if neighbor in alive and neighbor not in queued:
                        degree[neighbor] -= 1
                        if degree[neighbor] < self._d:
                            queue.append(neighbor)
                            queued.add(neighbor)
        return frozenset(alive)

    def check(self):
        """Verify the cached core against a scratch recomputation."""
        expected = coherent_core(self._graph, self._layers, self._d)
        if expected != self._core:
            raise AssertionError(
                "tracked core drifted: {} vs {}".format(
                    sorted(self._core, key=str), sorted(expected, key=str)
                )
            )
        return True

    def __repr__(self):
        return "CoherentCoreTracker(L={}, d={}, |core|={})".format(
            self._layers, self._d, len(self._core)
        )
