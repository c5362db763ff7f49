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

The same code runs on sets and, on a frozen graph, on the core
masks preprocessing leaves behind: sizes are ``len`` or
``count_nonzero``, intersections ``&`` either way, and the chosen
intersection reaches the peel as a mask.
"""

import numpy as np

from repro.core.coverage import DiversifiedTopK
from repro.core.dcc import coherent_core
from repro.graph.kernels import is_mask


def init_topk(graph, d, s, k, cores, topk=None, within=None, stats=None):
    """Seed a :class:`DiversifiedTopK` with ``k`` greedy candidates.

    Parameters
    ----------
    cores:
        Per-layer d-cores (from preprocessing) — ``cores[i] = C^d(G_i)``:
        sets, or on a frozen graph vertex masks
        (:meth:`~repro.core.preprocess.PreprocessResult.kernel_view`).
    topk:
        An existing result holder to fill; a fresh one is created if absent.
    within:
        Optional vertex restriction (the preprocessing ``alive`` set), in
        the form of ``cores``.

    Every choice compares sizes and breaks ties towards the lowest layer
    id.  Returns the (possibly new) :class:`DiversifiedTopK`.
    """
    if topk is None:
        topk = DiversifiedTopK(k)
    masks = is_mask(cores[0])
    size = np.count_nonzero if masks else len
    sizes = [size(core) for core in cores]
    layers = range(graph.num_layers)
    for _ in range(k):
        covered = topk.cover()
        if masks:
            ids = np.fromiter(covered, dtype=np.int64, count=len(covered))
            covered = np.zeros(graph.num_vertices, dtype=np.bool_)
            covered[ids] = True
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
        core = coherent_core(graph, label, d, within=candidate, stats=stats)
        accepted = topk.try_update(core, label=label)
        if stats is not None and accepted:
            stats.updates_accepted += 1
    return topk
