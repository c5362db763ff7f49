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
for each batch and its labels, and the index takes the maintainer's form.
With Python sets it keeps per-vertex dicts and one union-adjacency set
per vertex.  On a frozen graph it keeps arrays: a
level and a threshold vector, one label mask per layer (``v`` is set in
layer ``i``'s mask iff ``i ∈ L(v)``) and the union adjacency as a CSR;
there :meth:`~CoreHierarchyIndex.reachable_scope` takes and returns
vertex masks and runs as a frontier BFS.
"""

import numpy as np

from repro.core.maintain import core_maintainer
from repro.graph.kernels import _distinct, _gather_layer_rows, _gather_rows


class CoreHierarchyIndex:
    """The level/label index over a multi-layer graph (Fig. 10's substrate).

    Parameters
    ----------
    graph:
        The multi-layer graph to index.
    d:
        The degree threshold of the search.
    within:
        Optional vertex restriction (the preprocessing ``alive`` set, or
        its mask on a frozen graph; the index then describes the
        preprocessed graph, which is what TD-DCCS searches).
    stats:
        Optional :class:`~repro.core.stats.SearchStats`; d-core
        recomputations are charged to ``dcc_calls``.

    Attributes
    ----------
    levels:
        ``[(threshold, batch)]`` in removal order (ascending levels); a
        batch is a list of vertices, or an id array on a frozen graph.
    level_of / threshold_of / label / union_adj:
        The set form's per-vertex lookups; ``label[v]`` is the frozenset
        ``L(v)`` and ``union_adj[v]`` the indexed neighbours of ``v`` on
        any layer.
    level / threshold / label_masks / union_indptr / union_indices:
        The frozen graph's form of the same: length-``n`` vectors (level
        ``-1`` and threshold ``0`` for a vertex never indexed), one bool
        mask per layer, and a CSR whose row ``v`` lists ``v``'s indexed
        neighbours on every layer in turn (a neighbour on several layers
        appears once per layer).
    """

    def __init__(self, graph, d, within=None, stats=None):
        self.graph = graph
        self.d = d
        self.levels = []
        self._scope_cache = {}
        maintainer = core_maintainer(graph, d, within=within, stats=stats)
        self.is_array = maintainer.masks is not None
        if self.is_array:
            self._build_arrays(maintainer)
        else:
            self._build_sets(maintainer)

    def _batches(self, maintainer):
        """Yield ``(threshold, batch)`` in removal order, then remove it."""
        for threshold in range(1, self.graph.num_layers + 1):
            while len(maintainer):
                batch = maintainer.below(threshold + 1)
                if not len(batch):
                    break
                yield threshold, batch
                self.levels.append((threshold, batch))
                maintainer.remove(batch)
            if not len(maintainer):
                break

    def _build_sets(self, maintainer):
        self.level_of = {}
        self.threshold_of = {}
        self.label = {}
        for threshold, batch in self._batches(maintainer):
            labels = maintainer.labels_of(batch)
            self.label.update(labels)
            self.level_of.update(dict.fromkeys(labels, len(self.levels)))
            self.threshold_of.update(dict.fromkeys(labels, threshold))
        # The index edges of Section V-C: one union-adjacency set per
        # indexed vertex ("we add an edge between u and v in the index if
        # (u, v) is an edge on a layer of G").
        graph, indexed = self.graph, self.level_of
        self.union_adj = {}
        for vertex in indexed:
            neighbors = set()
            for layer in graph.layers():
                # update() (not |=) so backends may return any iterable.
                neighbors.update(graph.neighbors(layer, vertex))
            neighbors &= indexed.keys()
            neighbors.discard(vertex)
            self.union_adj[vertex] = neighbors

    def _build_arrays(self, maintainer):
        graph = self.graph
        n = graph.num_vertices
        cores = maintainer.masks.cores
        self.level = np.full(n, -1, dtype=np.int64)
        self.threshold = np.zeros(n, dtype=np.int64)
        self.label_masks = [np.zeros(n, dtype=np.bool_) for _ in cores]
        for threshold, batch in self._batches(maintainer):
            self.level[batch] = len(self.levels)
            self.threshold[batch] = threshold
            for label, core in zip(self.label_masks, cores):
                label[batch] = core[batch]
        # The index edges as a CSR: every layer's row of each indexed
        # vertex, kept where the neighbour is indexed too.  Each layer's
        # block is already grouped by row, so the stable sort only
        # merges one sorted run per layer.
        indexed = self.level >= 0
        members = np.flatnonzero(indexed)
        flat, bounds = _gather_layer_rows(graph, graph.layers(), members)
        owner = np.repeat(np.tile(members, graph.num_layers),
                          np.diff(bounds))
        kept = indexed[flat]
        owner = owner[kept]
        self.union_indices = flat[kept][np.argsort(owner, kind="stable")]
        self.union_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n), out=self.union_indptr[1:])

    # ------------------------------------------------------------------

    def __contains__(self, vertex):
        if self.is_array:
            return 0 <= vertex < self.level.size and \
                bool(self.level[vertex] >= 0)
        return vertex in self.level_of

    def __len__(self):
        if self.is_array:
            return int(np.count_nonzero(self.level >= 0))
        return len(self.level_of)

    @property
    def num_levels(self):
        """The number of batches recorded."""
        return len(self.levels)

    def scope(self, min_support):
        """``∪_{h >= min_support} I_h`` — the Lemma 8 search scope.

        A frozenset, or a vertex mask on a frozen graph.
        """
        cached = self._scope_cache.get(min_support)
        if cached is None:
            if self.is_array:
                # Thresholds start at 1, so unindexed vertices (0) never
                # enter the scope.
                cached = self.threshold >= max(1, min_support)
            else:
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

        ``candidates`` is a vertex collection, and the result a set; on
        a frozen graph both are vertex masks.  The result still
        over-approximates ``C^d_{L'}``; callers finish with an exact peel
        (see :func:`repro.core.refine.refine_core`).
        """
        wanted = frozenset(layer_subset)
        if self.is_array:
            return self._reachable_mask(wanted, candidates)
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

    def _reachable_mask(self, wanted, candidates):
        """:meth:`reachable_scope` on masks: a frontier BFS over the CSR.

        The level-ordered closure of the set form, in one pass: a zone
        vertex is reached from a reached neighbour whenever its level is
        at least the neighbour's.
        """
        zone = candidates & self.scope(len(wanted))
        reached = zone.copy()
        for layer in wanted:
            reached &= self.label_masks[layer]
        level = self.level
        frontier = np.flatnonzero(reached)
        while frontier.size:
            flat, bounds = _gather_rows(self.union_indptr,
                                        self.union_indices, frontier)
            source = np.repeat(level[frontier], np.diff(bounds))
            step = zone[flat] & ~reached[flat] & (level[flat] >= source)
            frontier = _distinct(flat[step], level.size)
            reached[frontier] = True
        return reached

    def __repr__(self):
        return "CoreHierarchyIndex(d={}, vertices={}, levels={})".format(
            self.d, len(self), self.num_levels
        )
