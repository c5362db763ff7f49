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

**Deviation from the literal pseudocode:** Fig. 3's BU-Gen computes a
child for every position after ``max(L)``.  A child at position ``p``
has only ``l - 1 - p`` positions after it, so when
``|L| + 1 + (l - 1 - p) < s`` its subtree holds no level-``s``
candidate.  The pruning rules cut such subtrees only once the result
set is full; when fewer than ``k`` non-empty d-CCs exist it never fills,
and the literal reading enumerates every prefix up to depth ``s - 1``
(on the 24-layer wiki stand-in at ``d = 4``, ``s = 22``: over 40,000
dCC calls without finishing, against 2,080 with the cut).  Our variant
considers only the feasible positions ``p <= l - s + |L|``; an
infeasible position is neither computed nor banned by Lemma 4.  The
tree then has at most ``C(l + 1, s) - 1`` nodes below the root
(hockey-stick identity).  A cut subtree holds no candidate, so
Theorem 3's argument is unchanged; the one difference in work is that
a deeper node may compute a child that an infeasible sibling's Lemma 4
ban would have cut in the literal reading.

The search runs on a frozen graph (a ``MultiLayerGraph`` is frozen and
answered in its labels) and keeps its tree's cores as frozensets of
dense ids, peeled by the CSR kernels of :mod:`repro.core.dcc`, or read
from the d-CCs the graph keeps when a kept one lies inside the child's
bound (:func:`~repro.core.dcc.kept_coherent_core` rebuilds it in the
bound's iteration order, as the peel would).  With
vertex deletion on, deletion, InitTopK and the tree run on the graph's
d-core union
(:meth:`~repro.graph.frozen.FrozenMultiLayerGraph.core_union`), and the
``k`` result sets are translated back at the end.
"""

from repro.core.coverage import DiversifiedTopK
# ``coherent_core`` stays a name of this module: tracers wrap the peels
# of each core module under it.
from repro.core.dcc import (  # noqa: F401
    coherent_core,
    kept_coherent_core,
    validate_search_params,
)
from repro.core.initk import init_topk
from repro.core.preprocess import order_layers, vertex_deletion
from repro.core.result import result_from_topk
from repro.core.stats import SearchStats
from repro.graph.backend import answers_in_labels
from repro.graph.kernels import parent_sets
from repro.utils.timer import Timer


@answers_in_labels
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
            graph, d, s, enabled=use_vertex_deletion, stats=stats,
            on_union=True,
        )
        topk = DiversifiedTopK(k)
        if use_init_topk:
            cores, alive = prep.kernel_view()
            init_topk(prep.graph, d, s, k, cores, topk=topk, within=alive,
                      stats=stats)
        order = order_layers(prep.cores, descending=True,
                             enabled=use_layer_sorting)
        search = _BottomUpSearch(
            graph=prep.graph,
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
        result = result_from_topk(topk, "bottom-up", (d, s, k), stats, 0.0)
        if prep.graph is not graph:
            result.sets = parent_sets(prep.graph, result.sets)
    result.elapsed = timer.elapsed
    return result


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
        # Below level s the bound may miss vertices of the full graph's
        # d-CC that vertex deletion removed, so only level s keeps it.
        child = kept_coherent_core(
            self.graph,
            self._layers_for(child_positions),
            self.d,
            bound,
            stats=self.stats,
            keep=len(child_positions) >= self.s,
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
        """The BU-Gen procedure (Fig. 3), over search positions.

        Only feasible positions are considered: a child at position
        ``p`` can add at most the ``l - 1 - p`` positions after it, so
        ``p > l - s + |L|`` leaves its subtree without a level-``s``
        node (see the module docstring).
        """
        highest = positions[-1] if positions else -1
        last = len(self.order) - self.s + len(positions)
        available = [p for p in range(highest + 1, last + 1)
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
