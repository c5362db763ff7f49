"""The hierarchical vertex index of the top-down algorithm (Section V-C).

The index records the order in which vertices fall out of the graph as the
support threshold ``h`` grows:

* ``J_h`` — vertices iteratively removed because their support ``Num(v)``
  (the number of layers whose d-core contains ``v``) is at most ``h``;
* ``I_h = J_h − J_{h-1}`` — the slice removed at threshold ``h``;
* within one ``I_h``, vertices removed in the same cascading *batch* share
  a **level**, and later batches sit on higher levels;
* ``L(v)`` — the set of layers whose d-core contained ``v`` just before
  its batch was removed.

Lemma 8 then bounds any d-CC w.r.t. ``L'`` inside
``∪_{h >= |L'|} I_h``, and Lemma 9 states that every member of the d-CC is
reachable by a level-ascending chain of index edges from a vertex ``w``
with ``L' ⊆ L(w)``.  :meth:`CoreHierarchyIndex.reachable_scope` implements
both filters.

The build asks a maintainer (:func:`~repro.core.maintain.core_maintainer`)
for each batch and its labels; on a frozen graph's numpy kernel tier the
batches are numpy cascades and the index edges come from CSR row
gathers (:func:`~repro.graph.kernels.np_union_adjacency`).
"""

from repro.core.maintain import core_maintainer


class CoreHierarchyIndex:
    """The level/label index over a multi-layer graph (Fig. 10's substrate).

    Parameters
    ----------
    graph:
        The multi-layer graph to index.
    d:
        The degree threshold of the search.
    within:
        Optional vertex restriction (the preprocessing ``alive`` set; the
        index then describes the preprocessed graph, which is what TD-DCCS
        searches).
    stats:
        Optional :class:`~repro.core.stats.SearchStats`; d-core
        recomputations are charged to ``dcc_calls``.

    Attributes
    ----------
    levels:
        ``[(threshold, [vertices])]`` in removal order (ascending levels).
    level_of / threshold_of / label:
        Per-vertex lookups; ``label[v]`` is the frozenset ``L(v)``.
    """

    def __init__(self, graph, d, within=None, stats=None):
        self.graph = graph
        self.d = d
        self.levels = []
        self.level_of = {}
        self.threshold_of = {}
        self.label = {}
        self._build(within, stats)
        self._scope_cache = {}
        # The index edges of Section V-C: one union-adjacency set per
        # indexed vertex ("we add an edge between u and v in the index if
        # (u, v) is an edge on a layer of G").
        self.union_adj = self._union_adjacency()

    def _build(self, within, stats):
        maintainer = core_maintainer(self.graph, self.d, within=within,
                                     stats=stats)
        level_index = 0
        for threshold in range(1, self.graph.num_layers + 1):
            while len(maintainer):
                batch = maintainer.below(threshold + 1)
                if not len(batch):
                    break
                labels = maintainer.labels_of(batch)
                self.label.update(labels)
                self.level_of.update(dict.fromkeys(labels, level_index))
                self.threshold_of.update(dict.fromkeys(labels, threshold))
                self.levels.append((threshold, list(labels)))
                maintainer.remove(batch)
                level_index += 1
            if not len(maintainer):
                break

    def _union_adjacency(self):
        graph, indexed = self.graph, self.level_of
        if graph.is_frozen and graph.kernel == "numpy":
            from repro.graph.kernels import np_union_adjacency

            return np_union_adjacency(graph, indexed)
        union_adj = {}
        for vertex in indexed:
            neighbors = set()
            for layer in graph.layers():
                # update() (not |=) so backends may return any iterable.
                neighbors.update(graph.neighbors(layer, vertex))
            neighbors &= indexed.keys()
            neighbors.discard(vertex)
            union_adj[vertex] = neighbors
        return union_adj

    # ------------------------------------------------------------------

    def __contains__(self, vertex):
        return vertex in self.level_of

    def __len__(self):
        return len(self.level_of)

    @property
    def num_levels(self):
        """The number of batches recorded."""
        return len(self.levels)

    def scope(self, min_support):
        """``∪_{h >= min_support} I_h`` — the Lemma 8 search scope."""
        cached = self._scope_cache.get(min_support)
        if cached is None:
            cached = frozenset(
                vertex
                for vertex, threshold in self.threshold_of.items()
                if threshold >= min_support
            )
            self._scope_cache[min_support] = cached
        return cached

    def reachable_scope(self, layer_subset, candidates):
        """Vertices of ``candidates`` not excluded by Lemmas 8 and 9.

        A vertex survives iff its removal threshold is at least
        ``|layer_subset|`` (Lemma 8) and it is reachable by a
        level-monotone chain of graph edges (any layer) from a vertex
        ``w`` with ``layer_subset ⊆ L(w)`` (Lemma 9; a valid-label vertex
        is its own length-0 chain).  Chains are allowed to step across
        equal levels, a strictly weaker — therefore still sound — filter
        than the paper's strictly-ascending chains.

        The result still over-approximates ``C^d_{L'}``; callers finish
        with an exact peel (see :func:`repro.core.refine.refine_core`).
        """
        wanted = frozenset(layer_subset)
        scope = self.scope(len(wanted))
        zone = {v for v in candidates if v in scope}
        if not zone:
            return zone

        by_level = {}
        for vertex in zone:
            by_level.setdefault(self.level_of[vertex], []).append(vertex)

        union_adj = self.union_adj
        reachable = set()
        for level in sorted(by_level):
            # Seed with valid-label vertices, then close under same-level
            # adjacency from anything already reachable (lower levels have
            # been fully processed, so cross-level promotion is implicit in
            # `reachable`).
            stack = []
            for vertex in by_level[level]:
                if wanted <= self.label[vertex] or union_adj[vertex] & reachable:
                    reachable.add(vertex)
                    stack.append(vertex)
            while stack:
                vertex = stack.pop()
                for neighbor in union_adj[vertex]:
                    if (
                        neighbor in zone
                        and neighbor not in reachable
                        and self.level_of[neighbor] == level
                    ):
                        reachable.add(neighbor)
                        stack.append(neighbor)
        return reachable

    def __repr__(self):
        return "CoreHierarchyIndex(d={}, vertices={}, levels={})".format(
            self.d, len(self.level_of), self.num_levels
        )
