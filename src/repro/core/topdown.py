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

The recursion runs on the primitives of
:mod:`repro.core.dcc`/:mod:`repro.core.refine` and the hierarchical
index, all of which speak the graph backend protocol, and it keeps the
potential sets in the form preprocessing's kernel view hands on: vertex
sets, or vertex masks on a frozen graph.  There
:func:`td_dccs` also moves to the *survivor subgraph* once vertex
deletion has removed a vertex: the frozen graph induced by the
survivors (:func:`~repro.graph.kernels.np_induced_subgraph`), whose
dense ids follow the input ids in ascending order.  InitTopK, the layer
order, the index, the root d-CC and the recursion all run on it, so no
kernel call pays for the deleted vertices, and the ``k`` result sets
are translated back at the end.  Every peel stays within the survivors
either way, so sets, labels and counters are those of a search on the
input graph.
"""

import numpy as np

from repro.core.coverage import DiversifiedTopK
from repro.core.dcc import coherent_core, validate_search_params
from repro.core.index import CoreHierarchyIndex
from repro.core.initk import init_topk
from repro.core.preprocess import order_layers, vertex_deletion
from repro.core.refine import refine_core, refine_potential
from repro.core.result import result_from_topk
from repro.core.stats import SearchStats
from repro.graph.kernels import np_induced_subgraph, vertex_count
from repro.utils.rng import make_rng
from repro.utils.timer import Timer


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
            graph, d, s, enabled=use_vertex_deletion, stats=stats
        )
        search_graph, cores, alive = _search_space(graph, prep)
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
        root_core = coherent_core(
            search_graph, graph.layers(), d, within=alive, stats=stats
        )
        if s == graph.num_layers:
            # The root is the only candidate.
            stats.candidates_generated += 1
            if topk.try_update(root_core, label=tuple(graph.layers())):
                stats.updates_accepted += 1
        else:
            search.generate(root_positions, root_core, alive)
        result = result_from_topk(topk, "top-down", (d, s, k), stats, 0.0)
        if search_graph is not graph:
            # Built in ascending id order, as the kernels build theirs.
            result.sets = [search_graph.labels_for(sorted(members))
                           for members in result.sets]
    result.elapsed = timer.elapsed
    return result


def _search_space(graph, prep):
    """``(graph, cores, alive)`` for the search after vertex deletion.

    The prep's kernel view over ``graph``; on a frozen graph, once a
    vertex was deleted, the survivor subgraph with the core masks
    indexed by the survivors and an all-true alive mask.
    """
    cores, alive = prep.kernel_view()
    if prep.masks is None or not prep.deleted:
        return graph, cores, alive
    survivors = np_induced_subgraph(graph, alive)
    return (survivors, [core[alive] for core in cores],
            np.ones(survivors.num_vertices, dtype=np.bool_))


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

    def generate_shard(self, root_positions, root_core, root_potential, drop):
        """Explore only the root child obtained by dropping ``drop``.

        The shard entry point of the parallel subsystem
        (:mod:`repro.parallel`): at the root every position is removable,
        so the tree partitions by which layer is shed first.  Each shard
        replays the root-level handling of :meth:`generate` for its
        single child — RefineU/RefineC, the level-``s`` offer, the
        Lemma 5 potential test — and then recurses as usual.  The
        cross-child Lemma 6 ordering cannot span shards and is skipped at
        this level (it applies unchanged inside the shard).
        """
        child_positions, child_potential, child_core = self._make_child(
            root_positions, root_potential, drop
        )
        if len(child_positions) == self.s:
            self._offer(child_positions, child_core)
        elif not self.topk.is_full or self.topk.satisfies_replacement(
            self.topk.gain_size(child_potential)
        ):
            self.generate(child_positions, child_core, child_potential)
        else:
            # Lemma 5 at the root of the shard.
            self.stats.candidates_pruned += 1

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
