"""The greedy DCCS algorithm GD-DCCS (Section III, Fig. 2).

GD-DCCS materialises the entire candidate family ``F_{d,s}(G)`` — one d-CC
per layer subset of size ``s``, computed on the Lemma 1 intersection bound
— and then runs the classic greedy max-k-cover selection over it, which
carries the ``1 - 1/e`` approximation guarantee (Theorem 2).

Its cost is dominated by the ``binom(l, s)`` candidate computations and by
keeping all of ``F`` in memory, which is exactly the scalability weakness
the bottom-up and top-down algorithms remove.

With vertex deletion on, deletion and the whole enumeration run on the
graph's d-core union
(:meth:`~repro.graph.frozen.FrozenMultiLayerGraph.core_union`), so no
mask or peel pays for the vertices outside every layer's d-core; the
chosen sets are translated back at the end.
"""

from repro.core.dcc import enumerate_candidates, validate_search_params
from repro.core.preprocess import vertex_deletion
from repro.core.result import DCCSResult
from repro.core.stats import SearchStats
from repro.graph.backend import answers_in_labels
from repro.graph.kernels import parent_sets
from repro.utils.timer import Timer


@answers_in_labels
def gd_dccs(graph, d, s, k, use_vertex_deletion=True, stats=None):
    """Run GD-DCCS; returns a :class:`~repro.core.result.DCCSResult`.

    Parameters
    ----------
    graph:
        The multi-layer graph; a ``MultiLayerGraph`` is frozen and the
        result reported in its labels.
    d, s, k:
        Minimum degree, minimum support (layer count), result count.
    use_vertex_deletion:
        The paper applies the Section IV-C vertex-deletion preprocessing to
        every algorithm "for fairness"; disable for the No-VD ablation.
    stats:
        Optional shared :class:`SearchStats`.
    """
    validate_search_params(graph, d, s, k)
    if stats is None:
        stats = SearchStats()
    with Timer() as timer:
        prep = vertex_deletion(
            graph, d, s, enabled=use_vertex_deletion, stats=stats,
            on_union=True,
        )
        candidates = _generate_candidates(prep.graph, d, s, prep, stats)
        chosen = greedy_max_k_cover(candidates, k)
        sets = [members for _, members in chosen]
        if prep.graph is not graph:
            sets = parent_sets(prep.graph, sets)
    result = DCCSResult(
        sets=sets,
        labels=[label for label, _ in chosen],
        algorithm="greedy",
        params=(d, s, k),
        stats=stats,
        elapsed=timer.elapsed,
    )
    stats.extra["candidate_family_size"] = len(candidates)
    return result


def _generate_candidates(graph, d, s, prep, stats):
    """Lines 4–7 of Fig. 2: one d-CC per size-``s`` layer subset.

    Delegates to :func:`~repro.core.dcc.enumerate_candidates` (sharing the
    preprocessed per-layer core masks), which applies the Lemma 1
    intersection bound.
    """
    cores, _ = prep.kernel_view()
    candidates = []
    for layer_subset, core in enumerate_candidates(
        graph, d, s, cores=cores, stats=stats
    ):
        stats.candidates_generated += 1
        candidates.append((layer_subset, core))
    return candidates


def greedy_max_k_cover(candidates, k):
    """Greedy max-k-cover over ``(label, vertex-set)`` pairs (lines 8–10).

    Repeatedly picks the candidate with the largest marginal cover gain.
    Candidates with zero gain are only taken once nothing positive is left,
    and empty candidates are never taken — a set that adds nothing cannot
    help the cover, and returning fewer than ``k`` sets is more honest than
    padding with duplicates.
    """
    covered = set()
    remaining = list(candidates)
    chosen = []
    while remaining and len(chosen) < k:
        best_index = -1
        best_gain = -1
        for index, (_, members) in enumerate(remaining):
            gain = len(members - covered)
            if gain > best_gain:
                best_gain = gain
                best_index = index
        if best_gain <= 0:
            break
        label, members = remaining.pop(best_index)
        chosen.append((label, members))
        covered |= members
    return chosen
