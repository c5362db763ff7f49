"""Greedy initialisation of the top-k result set (Appendix D, Fig. 37).

``InitTopK`` fills ``R`` with ``k`` quickly computed d-CCs before the real
search begins, because the Eq. (1) pruning rules of both search algorithms
only fire once ``|R| = k``.  Each seed is built by

1. picking the layer whose d-core adds the most new vertices to the
   current cover,
2. greedily intersecting in ``s - 1`` further layers that keep the
   intersection largest,
3. peeling the intersection down to the exact d-CC of the chosen layer
   subset and offering it to ``Update``.

It runs on the core masks preprocessing leaves behind on a frozen
graph: sizes are ``count_nonzero``, intersections ``&``, and the chosen
intersection reaches the peel as a mask.

The intersection contains the chosen subset's d-CC, so the peel reads
the one the graph keeps or keeps the one it finds
(:func:`~repro.core.dcc.kept_coherent_core`).  Once the cover stops
steering the choices, later seeds often repeat a subset (on the german
stand-in at ``s = l - 2``, 8 of 10 seeds repeat the second), and each
repeat reads that d-CC and charges its counters again.
"""

import numpy as np

from repro.core.coverage import DiversifiedTopK
# ``coherent_core`` stays a name of this module: tracers wrap the peels
# of each core module under it.
from repro.core.dcc import coherent_core, kept_coherent_core  # noqa: F401
from repro.graph.backend import require_frozen


def init_topk(graph, d, s, k, cores, topk=None, within=None, stats=None):
    """Seed a :class:`DiversifiedTopK` with ``k`` greedy candidates.

    Parameters
    ----------
    graph:
        The frozen graph.
    cores:
        Per-layer d-core masks (from preprocessing) —
        ``cores[i] = C^d(G_i)``
        (:meth:`~repro.core.preprocess.PreprocessResult.kernel_view`).
    topk:
        An existing result holder to fill; a fresh one is created if absent.
    within:
        Optional vertex restriction (the preprocessing ``alive`` mask).

    ``cores`` and ``within`` must hold every d-CC of a size-``s`` layer
    subset (the full-graph cores, or a vertex-deletion fixed point's
    cores and alive mask at this ``d`` and ``s``): the graph keeps the
    seeds' d-CCs.

    Every choice compares sizes and breaks ties towards the lowest layer
    id.  Returns the (possibly new) :class:`DiversifiedTopK`.
    """
    require_frozen(graph)
    if topk is None:
        topk = DiversifiedTopK(k)
    size = np.count_nonzero
    sizes = [size(core) for core in cores]
    layers = range(graph.num_layers)
    for _ in range(k):
        cover = topk.cover()
        covered = np.zeros(graph.num_vertices, dtype=np.bool_)
        covered[np.fromiter(cover, dtype=np.int64, count=len(cover))] = True
        # The layer whose core adds the most uncovered vertices.
        best = max(layers, key=lambda layer:
                   sizes[layer] - size(cores[layer] & covered))
        chosen = [best]
        candidate = cores[best] if within is None else cores[best] & within
        for _ in range(s - 1):
            best = max((layer for layer in layers if layer not in chosen),
                       key=lambda layer: size(candidate & cores[layer]))
            chosen.append(best)
            candidate = candidate & cores[best]
        label = tuple(sorted(chosen))
        core = kept_coherent_core(graph, label, d, candidate, stats=stats)
        accepted = topk.try_update(core, label=label)
        if stats is not None and accepted:
            stats.updates_accepted += 1
    return topk
