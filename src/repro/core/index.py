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

The build asks an :class:`~repro.core.maintain.ArrayCoreMaintainer` over
a frozen graph for each batch, and the index keeps arrays: a level and a
threshold vector, one label mask per layer (``v`` is set in layer
``i``'s mask iff ``i ∈ L(v)``) and the union adjacency as a CSR.
:meth:`~CoreHierarchyIndex.reachable_scope` takes and returns vertex
masks and runs as a frontier BFS.
"""

import numpy as np

from repro.core.maintain import ArrayCoreMaintainer
from repro.graph.kernels import _distinct, _gather_layer_rows, _gather_rows


class CoreHierarchyIndex:
    """The level/label index over a multi-layer graph (Fig. 10's substrate).

    Parameters
    ----------
    graph:
        The frozen graph to index.
    d:
        The degree threshold of the search.
    within:
        Optional vertex restriction (the preprocessing ``alive`` mask;
        the index then describes the preprocessed graph, which is what
        TD-DCCS searches).
    stats:
        Optional :class:`~repro.core.stats.SearchStats`; d-core
        recomputations are charged to ``dcc_calls``.

    Attributes
    ----------
    levels:
        ``[(threshold, batch)]`` in removal order (ascending levels); a
        batch is an id array.
    level / threshold:
        Length-``n`` vectors: each vertex's level and removal threshold
        (level ``-1`` and threshold ``0`` for a vertex never indexed).
    label_masks:
        One bool mask per layer: ``label_masks[i][v]`` iff ``i ∈ L(v)``.
    union_indptr / union_indices:
        A CSR whose row ``v`` lists ``v``'s indexed neighbours on every
        layer in turn (a neighbour on several layers appears once per
        layer).
    """

    def __init__(self, graph, d, within=None, stats=None):
        maintainer = ArrayCoreMaintainer(graph, d, within=within,
                                         stats=stats)
        self.graph = graph
        self.d = d
        self.levels = []
        self._scope_cache = {}
        self._build(maintainer)

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

    def _build(self, maintainer):
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
        return 0 <= vertex < self.level.size and \
            bool(self.level[vertex] >= 0)

    def __len__(self):
        return int(np.count_nonzero(self.level >= 0))

    @property
    def num_levels(self):
        """The number of batches recorded."""
        return len(self.levels)

    def scope(self, min_support):
        """``∪_{h >= min_support} I_h`` — the Lemma 8 search scope, as a
        vertex mask."""
        cached = self._scope_cache.get(min_support)
        if cached is None:
            # Thresholds start at 1, so unindexed vertices (0) never
            # enter the scope.
            cached = self.threshold >= max(1, min_support)
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

        ``candidates`` and the result are vertex masks; the result
        still over-approximates ``C^d_{L'}``, so callers finish with an
        exact peel (see :func:`repro.core.refine.refine_core`).  It runs
        the level-ordered closure as one frontier BFS over the union
        CSR: a zone vertex is reached from a reached neighbour whenever
        its level is at least the neighbour's.
        """
        wanted = frozenset(layer_subset)
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
