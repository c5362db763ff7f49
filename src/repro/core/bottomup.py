"""The bottom-up DCCS algorithm BU-DCCS (Section IV, Figs. 3 and 7).

Candidate d-CCs are organised in a prefix search tree over layer subsets
(Fig. 4): the node for subset ``L`` has one child per layer number greater
than ``max(L)``.  The tree is explored depth-first; at level ``s`` each
candidate is offered to the temporary top-k result set, and three pruning
rules cut subtrees once the result set is full:

* **search-tree pruning** (Lemma 2) — if ``C^d_L`` cannot pass the Eq. (1)
  replacement test, none of its descendants can (they are subsets);
* **order-based pruning** (Lemma 3) — children are visited in decreasing
  order of the intersection bound ``|C^d_L ∩ C^d(G_j)|``; once the bound
  drops below ``|Cov(R)|/k + |Δ(R, C*)|`` the remaining children are cut;
* **layer pruning** (Lemma 4) — a layer ``j`` whose child fails Eq. (1)
  is banned from the entire subtree below ``L``.

Every rule is individually switchable for the ablation benchmarks.
BU-DCCS attains the 1/4 approximation ratio of Theorem 3.

The search itself manipulates only vertex sets and the primitives of
:mod:`repro.core.dcc`, so it runs unchanged on either graph backend;
pass a frozen graph (or let ``search_dccs(backend="auto")`` freeze) to
route every peel through the CSR kernels.
"""

from repro.core.coverage import DiversifiedTopK
from repro.core.dcc import coherent_core, validate_search_params
from repro.core.initk import init_topk
from repro.core.preprocess import order_layers, vertex_deletion
from repro.core.result import result_from_topk
from repro.core.stats import SearchStats
from repro.utils.timer import Timer


def bu_dccs(graph, d, s, k,
            use_vertex_deletion=True,
            use_layer_sorting=True,
            use_init_topk=True,
            use_order_pruning=True,
            use_layer_pruning=True,
            stats=None):
    """Run BU-DCCS; returns a :class:`~repro.core.result.DCCSResult`.

    The three ``use_*`` preprocessing flags correspond to the paper's
    No-VD / No-SL / No-IR ablations (Fig. 28); the two pruning flags expose
    Lemma 3 and Lemma 4 for the extra ablation of Fig. 28b (see
    docs/experiments.md).
    """
    validate_search_params(graph, d, s, k)
    if stats is None:
        stats = SearchStats()
    with Timer() as timer:
        prep = vertex_deletion(
            graph, d, s, enabled=use_vertex_deletion, stats=stats
        )
        topk = DiversifiedTopK(k)
        if use_init_topk:
            cores, alive = prep.kernel_view()
            init_topk(graph, d, s, k, cores, topk=topk, within=alive,
                      stats=stats)
        order = order_layers(prep.cores, descending=True,
                             enabled=use_layer_sorting)
        search = _BottomUpSearch(
            graph=graph,
            d=d,
            s=s,
            order=order,
            cores=prep.cores,
            topk=topk,
            stats=stats,
            use_order_pruning=use_order_pruning,
            use_layer_pruning=use_layer_pruning,
        )
        search.run(prep.alive)
    return result_from_topk(topk, "bottom-up", (d, s, k), stats, timer.elapsed)


class _BottomUpSearch:
    """State shared across the BU-Gen recursion (Fig. 3)."""

    def __init__(self, graph, d, s, order, cores, topk, stats,
                 use_order_pruning, use_layer_pruning):
        self.graph = graph
        self.d = d
        self.s = s
        # `order[p]` is the layer id at search position p; the tree is
        # built over positions so the sorting-layers heuristic simply
        # permutes which child is explored first.
        self.order = order
        self.cores = cores
        self.topk = topk
        self.stats = stats
        self.use_order_pruning = use_order_pruning
        self.use_layer_pruning = use_layer_pruning

    def run(self, root_vertices):
        """Line 10 of Fig. 7: BU-Gen from the empty layer set."""
        self._generate(positions=(), core=frozenset(root_vertices), banned=frozenset())

    def run_subtree(self, position, root_vertices):
        """Explore only the first-position subtree rooted at ``position``.

        The shard entry point of the parallel subsystem
        (:mod:`repro.parallel`): the prefix search tree partitions
        cleanly by its root children — the subtree at ``position`` holds
        exactly the layer subsets whose smallest search position is
        ``position`` — so each shard replays the root-level handling of
        :meth:`run` for its single child (Lemma 1 bound, level-``s``
        offer, Lemma 2 expansion test) and then recurses as usual.
        Lemma 4 bans start empty per shard: root-level bans cannot cross
        shard boundaries.
        """
        child_positions, child = self._child_core(
            (), frozenset(root_vertices), position
        )
        if len(child_positions) == self.s:
            self._offer(child_positions, child)
        elif not self.topk.is_full or self.topk.satisfies_replacement(child):
            self._generate(child_positions, child, frozenset())
        else:
            # Lemma 2 at the root of the shard.
            self.stats.candidates_pruned += 1

    # ------------------------------------------------------------------

    def _layers_for(self, positions):
        """Map tree positions back to sorted actual layer ids."""
        return tuple(sorted(self.order[p] for p in positions))

    def _child_core(self, positions, core, position):
        """Compute ``C^d_{L ∪ {j}}`` on the Lemma 1 intersection bound."""
        bound = core & self.cores[self.order[position]]
        child_positions = positions + (position,)
        if not bound:
            # Lemma 1: empty bound, hence empty child d-CC.
            return child_positions, frozenset()
        child = coherent_core(
            self.graph,
            self._layers_for(child_positions),
            self.d,
            within=bound,
            stats=self.stats,
        )
        return child_positions, child

    def _offer(self, positions, candidate):
        """Hand a level-``s`` candidate to Update, tracking counters."""
        self.stats.candidates_generated += 1
        accepted = self.topk.try_update(candidate, label=self._layers_for(positions))
        if accepted:
            self.stats.updates_accepted += 1
        return accepted

    # ------------------------------------------------------------------

    def _generate(self, positions, core, banned):
        """The BU-Gen procedure (Fig. 3), over search positions."""
        highest = positions[-1] if positions else -1
        available = [p for p in range(highest + 1, len(self.order))
                     if p not in banned]
        expandable = []

        if not self.topk.is_full:
            # Cases 1 and 2: no pruning is possible yet.
            for position in available:
                child_positions, child = self._child_core(positions, core, position)
                if len(child_positions) == self.s:
                    self._offer(child_positions, child)
                else:
                    expandable.append((position, child))
        else:
            # Case 3 plus Lemma 3 ordering and Lemma 4 layer pruning.
            ordered = sorted(
                available,
                key=lambda p: len(core & self.cores[self.order[p]]),
                reverse=True,
            )
            for rank, position in enumerate(ordered):
                # Recomputed every iteration: accepted updates grow Cov(R)
                # and tighten the Lemma 3 bound for the remaining children.
                threshold = (
                    self.topk.cover_size + self.topk.k * self.topk.min_exclusive()
                )
                bound_size = len(core & self.cores[self.order[position]])
                if self.use_order_pruning and bound_size * self.topk.k < threshold:
                    # Lemma 3: this child and all later (smaller-bound)
                    # children cannot satisfy Eq. (1).
                    self.stats.candidates_pruned += len(ordered) - rank
                    break
                child_positions, child = self._child_core(positions, core, position)
                if len(child_positions) == self.s:
                    self._offer(child_positions, child)
                elif self.topk.satisfies_replacement(child):
                    expandable.append((position, child))
                else:
                    # Lemma 2 cuts the subtree; Lemma 4 additionally bans
                    # the layer from every deeper subtree below `positions`.
                    self.stats.candidates_pruned += 1

        if len(positions) + 1 < self.s and expandable:
            kept = {position for position, _ in expandable}
            if self.use_layer_pruning:
                child_banned = banned | (set(available) - kept)
            else:
                child_banned = banned
            for position, child in expandable:
                self._generate(positions + (position,), child, child_banned)
