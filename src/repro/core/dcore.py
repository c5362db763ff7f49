"""Single-layer d-cores (Batagelj & Zaversnik, reference [3]).

Three entry points, each a numpy kernel over the frozen CSR
(:mod:`repro.graph.kernels`):

* :func:`layer_core` — the d-core of one layer of a multi-layer graph:
  the maximal vertex set whose induced subgraph on that layer has
  minimum degree ``>= d``, optionally restricted to a vertex subset;
* :func:`layer_core_decomposition` — the core number of every vertex of
  one layer, by an ascending-threshold cascade;
* :func:`layer_core_sizes` — ``{d: |d-core|}`` from one decomposition,
  which the layer statistics consult.

Each takes either graph: a :class:`~repro.graph.multilayer.MultiLayerGraph`
is frozen (``freeze()`` is cached), ``within`` is translated into its
dense ids and the answer comes back in its labels.
"""

from repro.graph.backend import label_ids, resolve_search_graph
from repro.utils.errors import check_degree


def layer_core(graph, layer, d, within=None):
    """The d-core of ``graph``'s ``layer`` as a set of its vertices."""
    check_degree(d)
    frozen, translate = resolve_search_graph(graph)
    frozen._check_layer(layer)
    if translate:
        within = label_ids(frozen, within)
    # Looked up at call time, so tracers can wrap the kernel.
    from repro.graph.kernels import np_layer_core

    core = np_layer_core(frozen, layer, d, within=within)
    return set(frozen.labels_for(core)) if translate else core


def layer_core_decomposition(graph, layer, within=None):
    """``{vertex: core number}`` of one layer, within ``within``."""
    frozen, translate = resolve_search_graph(graph)
    frozen._check_layer(layer)
    if translate:
        within = label_ids(frozen, within)
    from repro.graph.kernels import np_core_decomposition

    core = np_core_decomposition(frozen, layer, within=within)
    if translate:
        labels = frozen.labels
        return {labels[v]: number for v, number in core.items()}
    return core


def layer_core_sizes(graph, layer, within=None):
    """``{d: |d-core|}`` of one layer for every achievable d.

    The size of the d-core equals the number of vertices with core
    number ``>= d``, so one decomposition gives the whole histogram.
    """
    core = layer_core_decomposition(graph, layer, within=within)
    if not core:
        return {0: 0}
    max_core = max(core.values())
    sizes = {}
    count_at = [0] * (max_core + 2)
    for value in core.values():
        count_at[value] += 1
    running = 0
    for d in range(max_core, -1, -1):
        running += count_at[d]
        sizes[d] = running
    return sizes
