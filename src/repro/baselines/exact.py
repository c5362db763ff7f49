"""An exact solver for the DCCS problem on small instances.

The paper does not run the brute-force algorithm ("it cannot terminate in
reasonable time"), but an exact solver is indispensable for testing: the
approximation-ratio theorems (1 − 1/e for GD-DCCS, 1/4 for BU/TD-DCCS)
can only be checked against a true optimum.  DCCS is NP-complete
(Theorem 1), so this module is honest about its scope: it enumerates the
candidate family ``F_{d,s}(G)`` and solves max-k-cover over it by
branch-and-bound, which is practical up to a few dozen distinct candidates.
Both solvers take either graph and answer in its labels.
"""

from itertools import combinations

from repro.core.dcc import enumerate_candidates
from repro.core.preprocess import vertex_deletion
from repro.core.result import DCCSResult
from repro.core.stats import SearchStats
from repro.graph.backend import answers_in_labels, resolve_search_graph
from repro.utils.errors import ParameterError
from repro.utils.timer import Timer


@answers_in_labels
def exact_dccs(graph, d, s, k, max_candidates=64, stats=None):
    """Solve DCCS exactly; returns a :class:`~repro.core.result.DCCSResult`.

    Raises :class:`ParameterError` when the number of *distinct, non-empty*
    candidate d-CCs exceeds ``max_candidates`` — refusing loudly beats
    silently taking exponential time.
    """
    if stats is None:
        stats = SearchStats()
    with Timer() as timer:
        prep = vertex_deletion(graph, d, s, stats=stats)
        # The cores lie inside the alive set, so their Lemma 1 bounds
        # hold each candidate, which the graph keeps.
        cores, _ = prep.kernel_view()
        labelled = {}
        for label, members in enumerate_candidates(
            graph, d, s, cores=cores, stats=stats
        ):
            stats.candidates_generated += 1
            if members and members not in labelled:
                labelled[members] = label
        candidates = [(label, members) for members, label in labelled.items()]
        if len(candidates) > max_candidates:
            raise ParameterError(
                "{} distinct candidates exceed max_candidates={}; "
                "the exact solver is for small instances only".format(
                    len(candidates), max_candidates
                )
            )
        chosen = max_k_cover_exact([members for _, members in candidates], k)
        picked = [candidates[index] for index in chosen]
    return DCCSResult(
        sets=[members for _, members in picked],
        labels=[label for label, _ in picked],
        algorithm="exact",
        params=(d, s, k),
        stats=stats,
        elapsed=timer.elapsed,
    )


def max_k_cover_exact(sets, k):
    """Indices of an optimal k-subset of ``sets`` maximising the union size.

    Branch-and-bound over candidates ordered by decreasing size; the bound
    adds the ``r`` largest remaining set sizes to the current cover, which
    dominates any achievable completion.  Falls back to trivial answers
    when ``k`` covers everything.
    """
    sets = [frozenset(members) for members in sets]
    order = sorted(range(len(sets)), key=lambda index: -len(sets[index]))
    if k >= len(sets):
        return list(range(len(sets)))

    best_cover = -1
    best_pick = []

    # A greedy warm start tightens the bound from the first branch.
    greedy_pick = _greedy_indices(sets, k)
    greedy_cover = len(frozenset().union(*(sets[i] for i in greedy_pick))) \
        if greedy_pick else 0
    best_cover = greedy_cover
    best_pick = list(greedy_pick)

    def recurse(start, chosen, covered):
        nonlocal best_cover, best_pick
        if len(chosen) == k or start == len(order):
            if len(covered) > best_cover:
                best_cover = len(covered)
                best_pick = list(chosen)
            return
        slots = k - len(chosen)
        bound = len(covered) + sum(
            len(sets[order[i]]) for i in range(start, min(start + slots, len(order)))
        )
        if bound <= best_cover:
            return
        index = order[start]
        # Branch 1: take this candidate.
        chosen.append(index)
        recurse(start + 1, chosen, covered | sets[index])
        chosen.pop()
        # Branch 2: skip it.
        recurse(start + 1, chosen, covered)

    recurse(0, [], frozenset())
    return best_pick


def _greedy_indices(sets, k):
    covered = set()
    chosen = []
    remaining = set(range(len(sets)))
    while remaining and len(chosen) < k:
        best = max(remaining, key=lambda index: len(sets[index] - covered))
        if not sets[best] - covered and covered:
            break
        chosen.append(best)
        covered |= sets[best]
        remaining.discard(best)
    return chosen


def optimal_cover_size(graph, d, s, k, max_candidates=64):
    """Convenience wrapper returning just ``|Cov(R*)|`` of the optimum."""
    return exact_dccs(graph, d, s, k, max_candidates=max_candidates).cover_size


def brute_force_all_subsets(graph, d, s, k, max_family=20):
    """The literal brute force of Section III: try *every* k-combination.

    Exponentially slower than :func:`exact_dccs`; exists so tests can
    cross-check the branch-and-bound solver on tiny inputs.
    """
    graph, translate = resolve_search_graph(graph)
    family = []
    seen = set()
    for label, members in enumerate_candidates(graph, d, s):
        if translate:
            members = graph.labels_for(members)
        if members and members not in seen:
            seen.add(members)
            family.append((label, members))
    if len(family) > max_family:
        raise ParameterError(
            "{} candidates exceed max_family={}".format(len(family), max_family)
        )
    best_cover = -1
    best_combo = []
    take = min(k, len(family))
    for combo in combinations(range(len(family)), take):
        covered = set()
        for index in combo:
            covered |= family[index][1]
        if len(covered) > best_cover:
            best_cover = len(covered)
            best_combo = combo
    return [family[index] for index in best_combo]
