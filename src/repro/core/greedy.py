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

The candidates are the graph's kept d-CCs
(:func:`~repro.core.dcc.kept_coherent_core`), so a repeated search
peels nothing, and they stay id arrays: the max-k-cover counts gains
against a covered mask and builds frozensets for the chosen sets only.
"""

import numpy as np

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
    """Lines 4–7 of Fig. 2: one d-CC per size-``s`` layer subset, as
    its ascending ids.

    Delegates to :func:`~repro.core.dcc.enumerate_candidates` (sharing the
    preprocessed per-layer core masks), which applies the Lemma 1
    intersection bound.
    """
    cores, _ = prep.kernel_view()
    candidates = []
    for layer_subset, core in enumerate_candidates(
        graph, d, s, cores=cores, stats=stats, as_ids=True
    ):
        stats.candidates_generated += 1
        candidates.append((layer_subset, core))
    return candidates


def greedy_max_k_cover(candidates, k):
    """Greedy max-k-cover over ``(label, members)`` pairs (lines 8–10).

    Repeatedly picks the candidate with the largest marginal cover gain,
    the first one in ``candidates`` order on a tie.  A set that adds
    nothing cannot help the cover, and returning fewer than ``k`` sets is
    more honest than padding with duplicates, so the selection stops
    once no candidate gains.

    Members are id arrays over dense ids, as the enumeration yields
    them, or vertex sets.  Each round counts every candidate's gain
    against a mask of the covered vertices in one pass over all their
    ids.  Returns ``(label, frozenset)`` pairs: a set as it was, an
    array's frozenset built from its ids in order.
    """
    candidates = list(candidates)
    arrays = _id_arrays([members for _, members in candidates])
    if not arrays:
        return []
    sizes = np.array([ids.size for ids in arrays], dtype=np.int64)
    flat = np.concatenate(arrays)
    bounds = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    covered = np.zeros(int(flat.max()) + 1 if flat.size else 0,
                       dtype=np.bool_)
    sums = np.zeros(flat.size + 1, dtype=np.int64)
    chosen = []
    while len(chosen) < k:
        # A chosen set gains nothing once covered, so it cannot win again.
        np.cumsum(covered[flat], out=sums[1:])
        gains = sizes - (sums[bounds[1:]] - sums[bounds[:-1]])
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break
        covered[arrays[best]] = True
        label, members = candidates[best]
        if isinstance(members, np.ndarray):
            members = frozenset(members.tolist())
        chosen.append((label, members))
    return chosen


def _id_arrays(family):
    """Each member collection of ``family`` as an int64 id array: id
    arrays as they are when all are, else every vertex numbered in
    order of first appearance."""
    if all(isinstance(members, np.ndarray) for members in family):
        return [members.astype(np.int64, copy=False) for members in family]
    numbers = {}
    return [np.fromiter((numbers.setdefault(vertex, len(numbers))
                         for vertex in members), dtype=np.int64,
                        count=len(members))
            for members in family]
