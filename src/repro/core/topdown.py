"""The top-down DCCS algorithm TD-DCCS (Section V, Figs. 8 and 11).

TD-DCCS is the algorithm of choice for large support thresholds
(``s >= l/2``): the search tree of Fig. 5 starts from the d-CC w.r.t. *all*
layers and removes one layer per edge down to level ``s``, so only
``sum_{i=s}^{l} binom(l, i)`` nodes exist — few when ``s`` is large.

Each node carries, besides its d-CC ``C_L``, a *potential vertex set*
``U_L`` that over-approximates every descendant candidate (Fig. 6);
``U_L`` is shrunk along tree edges by RefineU and the exact child d-CC is
recovered inside it by RefineC over the hierarchical index.  Pruning:

* **search-tree pruning** (Lemma 5) — a node whose ``U_L`` fails the
  Eq. (1) replacement test can be cut entirely;
* **order-based pruning** (Lemma 6) — children visited in decreasing
  ``|U_{L−{j}}|``; once below ``|Cov(R)|/k + |Δ(R, C*)|`` the rest are cut;
* **potential-set pruning** (Lemma 7) — when ``C_L`` passes Eq. (1) and
  ``U_L`` is small enough (Eq. 2), at most one descendant can ever update
  ``R``; a random size-``s`` descendant is tried and the subtree skipped.

TD-DCCS attains the 1/4 approximation ratio of Theorem 4.

The recursion runs on a frozen graph (a ``MultiLayerGraph`` is frozen
and answered in its labels), on the primitives of
:mod:`repro.core.dcc`/:mod:`repro.core.refine` and the hierarchical
index, and it keeps the potential sets as the vertex masks
preprocessing's kernel view hands on.  With vertex deletion on, deletion
runs on the graph's d-core union
(:meth:`~repro.graph.frozen.FrozenMultiLayerGraph.core_union`), which
the graph keeps per ``d``, and the graph keeps its fixed point per
``(d, s)``.  :func:`td_dccs` then moves to the *survivor subgraph* once
deletion has removed a vertex of the graph it ran on: the frozen graph
induced by the survivors
(:func:`~repro.graph.kernels.np_induced_subgraph`), whose dense ids
follow that graph's ids in ascending order.  It depends only on ``d``
and ``s`` too, so the first top-down search at a ``(d, s)`` builds it
and the kept fixed point keeps it, with the core masks re-indexed to
it (:meth:`~repro.core.preprocess.KeptFixedPoint.survivor_space`).
InitTopK, the layer order, the index, the root d-CC and the recursion
all run on it, so no kernel call pays for the deleted vertices, and the
``k`` result sets are translated back at the end, through the union
when there is one.  Every peel stays within the survivors either way,
so sets, labels and counters are those of a search on the input graph.
InitTopK and the index are built on every search, but the d-CCs of
InitTopK's seeds, of the root and of every RefineC child are kept by
the graph the search runs on
(:func:`~repro.core.dcc.kept_coherent_core`), so a repeated search
reads them instead of peeling.
"""

import numpy as np

from repro.core.coverage import DiversifiedTopK
from repro.core.dcc import (
    coherent_core,
    kept_coherent_core,
    validate_search_params,
)
from repro.core.index import CoreHierarchyIndex
from repro.core.initk import init_topk
from repro.core.preprocess import order_layers, vertex_deletion
from repro.core.refine import refine_core, refine_potential
from repro.core.result import result_from_topk
from repro.core.stats import SearchStats
from repro.graph.backend import answers_in_labels
from repro.graph.kernels import (
    np_induced_subgraph,
    parent_sets,
    vertex_count,
)
from repro.utils.rng import make_rng
from repro.utils.timer import Timer


@answers_in_labels
def td_dccs(graph, d, s, k,
            use_vertex_deletion=True,
            use_layer_sorting=True,
            use_init_topk=True,
            use_order_pruning=True,
            use_potential_pruning=True,
            use_index=True,
            seed=None,
            stats=None):
    """Run TD-DCCS; returns a :class:`~repro.core.result.DCCSResult`.

    ``use_index=False`` replaces RefineC by the plain dCC procedure (the
    No-index ablation); ``seed`` drives the random descendant choice of the
    Lemma 7 shortcut.
    """
    validate_search_params(graph, d, s, k)
    if stats is None:
        stats = SearchStats()
    rng = make_rng(seed)
    with Timer() as timer:
        prep = vertex_deletion(
            graph, d, s, enabled=use_vertex_deletion, stats=stats,
            on_union=True,
        )
        search_graph, cores, alive = _search_space(prep)
        topk = DiversifiedTopK(k)
        if use_init_topk:
            init_topk(search_graph, d, s, k, cores, topk=topk, within=alive,
                      stats=stats)
        # Ascending core size: small-core layers get large positions, so
        # the canonical top-down tree sheds them first (Section V-D).
        order = order_layers(cores, descending=False,
                             enabled=use_layer_sorting)
        index = None
        if use_index:
            index = CoreHierarchyIndex(search_graph, d, within=alive,
                                       stats=stats)
        search = _TopDownSearch(
            graph=search_graph,
            d=d,
            s=s,
            order=order,
            cores=cores,
            topk=topk,
            index=index,
            rng=rng,
            stats=stats,
            use_order_pruning=use_order_pruning,
            use_potential_pruning=use_potential_pruning,
        )
        root_positions = frozenset(range(graph.num_layers))
        root_core = kept_coherent_core(
            search_graph, tuple(graph.layers()), d, alive, stats=stats
        )
        if s == graph.num_layers:
            # The root is the only candidate.
            stats.candidates_generated += 1
            if topk.try_update(root_core, label=tuple(graph.layers())):
                stats.updates_accepted += 1
        else:
            search.generate(root_positions, root_core, alive)
        result = result_from_topk(topk, "top-down", (d, s, k), stats, 0.0)
        if search_graph is not prep.graph:
            result.sets = parent_sets(search_graph, result.sets)
        if prep.graph is not graph:
            result.sets = parent_sets(prep.graph, result.sets)
    result.elapsed = timer.elapsed
    return result


def _search_space(prep):
    """``(graph, cores, alive)`` for the search after vertex deletion.

    The prep's kernel view over its graph; once a vertex of that graph
    was deleted, the survivor space kept with the prep's fixed point:
    the survivor subgraph, the core masks indexed by the survivors and
    an all-true alive mask.
    """
    cores, alive = prep.kernel_view()
    if alive.all():
        return prep.graph, cores, alive
    return prep.kept.survivor_space(
        lambda: _survivor_space(prep.graph, cores, alive))


def _survivor_space(graph, cores, alive):
    """The survivor subgraph of ``alive`` and its read-only masks."""
    survivors = np_induced_subgraph(graph, alive)
    masks = [core[alive] for core in cores]
    masks.append(np.ones(survivors.num_vertices, dtype=np.bool_))
    for mask in masks:
        mask.flags.writeable = False
    return survivors, masks[:-1], masks[-1]


class _TopDownSearch:
    """State shared across the TD-Gen recursion (Fig. 8)."""

    def __init__(self, graph, d, s, order, cores, topk, index, rng, stats,
                 use_order_pruning, use_potential_pruning):
        self.graph = graph
        self.d = d
        self.s = s
        self.order = order
        self.cores = cores
        self.topk = topk
        self.index = index
        self.rng = rng
        self.stats = stats
        self.use_order_pruning = use_order_pruning
        self.use_potential_pruning = use_potential_pruning

    # ------------------------------------------------------------------

    def _layers_for(self, positions):
        return tuple(sorted(self.order[p] for p in positions))

    def _removable(self, positions):
        """``LR``: positions of ``L`` larger than the largest missing one."""
        missing_max = -1
        for position in range(len(self.order)):
            if position not in positions:
                missing_max = position
        return sorted(p for p in positions if p > missing_max)

    def _offer(self, positions, candidate):
        self.stats.candidates_generated += 1
        accepted = self.topk.try_update(
            candidate, label=self._layers_for(positions)
        )
        if accepted:
            self.stats.updates_accepted += 1
        return accepted

    def _make_child(self, positions, potential, drop):
        """Lines 3–5 of Fig. 8: RefineU then RefineC for ``L − {drop}``."""
        child_positions = frozenset(positions - {drop})
        child_potential = refine_potential(
            self.graph, self.d, self.s, potential, child_positions,
            self.order, self.cores, stats=self.stats,
        )
        child_core = refine_core(
            self.graph, self.d, child_positions, child_potential,
            self.order, self.index, stats=self.stats,
        )
        return child_positions, child_potential, child_core

    def _satisfies_eq2(self, potential_size):
        """Eq. (2) in exact integer arithmetic.

        ``|U| < (1/k + 1/k^2) |Cov| + (1 + 1/k) |Δ(R, C*)|`` becomes
        ``|U| k^2 < (k + 1) |Cov| + (k^2 + k) |Δ|``.
        """
        k = self.topk.k
        cover = self.topk.cover_size
        delta = self.topk.min_exclusive()
        return potential_size * k * k < (k + 1) * cover + (k * k + k) * delta

    def _random_descendant(self, positions):
        """Line 25 of Fig. 8: a random size-``s`` subset of ``L``.

        Only removable positions may be dropped; when they do not suffice
        to reach size ``s`` the caller falls back to recursion.
        """
        removable = self._removable(positions)
        surplus = len(positions) - self.s
        if surplus > len(removable):
            return None
        dropped = self.rng.sample(removable, surplus)
        return frozenset(positions - set(dropped))

    # ------------------------------------------------------------------

    def generate(self, positions, core, potential):
        """The TD-Gen procedure (Fig. 8)."""
        removable = self._removable(positions)
        children = [
            self._make_child(positions, potential, drop)
            for drop in removable
        ]

        if not self.topk.is_full:
            for child_positions, child_potential, child_core in children:
                if len(child_positions) == self.s:
                    self._offer(child_positions, child_core)
                else:
                    self.generate(child_positions, child_core, child_potential)
            return

        children.sort(key=lambda child: vertex_count(child[1]), reverse=True)
        for rank, (child_positions, child_potential, child_core) in enumerate(children):
            threshold = (
                self.topk.cover_size + self.topk.k * self.topk.min_exclusive()
            )
            if (
                self.use_order_pruning
                and vertex_count(child_potential) * self.topk.k < threshold
            ):
                # Lemma 6: this child and all later (smaller-U) ones are out.
                self.stats.candidates_pruned += len(children) - rank
                break
            if len(child_positions) == self.s:
                self._offer(child_positions, child_core)
                continue
            if not self.topk.satisfies_replacement(
                self.topk.gain_size(child_potential)
            ):
                # Lemma 5: no descendant can pass Eq. (1).
                self.stats.candidates_pruned += 1
                continue
            if (
                self.use_potential_pruning
                and self.topk.satisfies_replacement(child_core)
                and self._satisfies_eq2(vertex_count(child_potential))
            ):
                descendant = self._random_descendant(child_positions)
                if descendant is not None:
                    # Lemma 7: a single random descendant suffices.
                    candidate = coherent_core(
                        self.graph, self._layers_for(descendant), self.d,
                        within=child_potential, stats=self.stats,
                    )
                    self._offer(descendant, candidate)
                    self.stats.candidates_pruned += 1
                    continue
            self.generate(child_positions, child_core, child_potential)
