"""Structural analysis of multi-layer graphs.

Descriptive statistics the DCCS workflow needs when facing an unfamiliar
graph: how dense is each layer, how similar are layers to each other
(which drives a sensible support threshold ``s``), and how vertex
support is distributed (which predicts what vertex-deletion will prune).
"""

from repro.core.dcore import layer_core, layer_core_sizes
from repro.utils.errors import ParameterError, check_degree


def layer_statistics(graph):
    """One dict per layer: edges, avg/max degree, density, 2-core size."""
    rows = []
    n = graph.num_vertices
    for layer in graph.layers():
        adjacency = graph.adjacency(layer)
        degrees = [len(neighbors) for neighbors in adjacency.values()]
        edges = sum(degrees) // 2
        rows.append({
            "layer": layer,
            "edges": edges,
            "avg_degree": (sum(degrees) / n) if n else 0.0,
            "max_degree": max(degrees, default=0),
            "density": (2.0 * edges / (n * (n - 1))) if n > 1 else 0.0,
            "two_core": len(layer_core(graph, layer, 2)),
        })
    return rows


def layer_edge_jaccard(graph, first, second):
    """Jaccard similarity of the edge sets of two layers.

    High similarity between layers means d-CCs recur cheaply across them
    — the signal that a large ``s`` is meaningful for this graph.
    """
    first_edges = {frozenset(edge) for edge in graph.edges(first)}
    second_edges = {frozenset(edge) for edge in graph.edges(second)}
    union = first_edges | second_edges
    if not union:
        return 1.0
    return len(first_edges & second_edges) / len(union)


def layer_similarity_matrix(graph):
    """The full pairwise :func:`layer_edge_jaccard` matrix."""
    edge_sets = [
        {frozenset(edge) for edge in graph.edges(layer)}
        for layer in graph.layers()
    ]
    matrix = []
    for first in edge_sets:
        row = []
        for second in edge_sets:
            union = first | second
            row.append(len(first & second) / len(union) if union else 1.0)
        matrix.append(row)
    return matrix


def support_histogram(graph, d):
    """``{support: count}`` — how many vertices sit in exactly that many
    per-layer d-cores.

    The mass below a candidate ``s`` is exactly what the vertex-deletion
    preprocessing will remove; use this to pick ``s`` with open eyes.
    """
    check_degree(d)
    support = {v: 0 for v in graph.vertices()}
    for layer in graph.layers():
        for vertex in layer_core(graph, layer, d):
            support[vertex] += 1
    histogram = {}
    for count in support.values():
        histogram[count] = histogram.get(count, 0) + 1
    return histogram


def core_size_profile(graph, max_d=None):
    """``{layer: {d: |d-core|}}`` — per-layer core-size curves.

    The layer-sorting preprocessing orders layers by one slice of this
    profile; the whole curve shows how quickly each layer thins out.
    """
    profile = {}
    for layer in graph.layers():
        sizes = layer_core_sizes(graph, layer)
        if max_d is not None:
            sizes = {d: size for d, size in sizes.items() if d <= max_d}
        profile[layer] = sizes
    return profile


def recommend_support(graph, d, coverage=0.5):
    """The largest ``s`` keeping at least ``coverage`` of the d-core mass.

    Heuristic: vertices with support below ``s`` are deleted before the
    search; this picks the most demanding ``s`` that still retains the
    requested fraction of the vertices that sit in at least one d-core.
    """
    if not 0.0 < coverage <= 1.0:
        raise ParameterError("coverage must be in (0, 1]")
    histogram = support_histogram(graph, d)
    in_any_core = sum(
        count for support, count in histogram.items() if support >= 1
    )
    if in_any_core == 0:
        return 1
    best = 1
    for s in range(1, graph.num_layers + 1):
        surviving = sum(
            count for support, count in histogram.items() if support >= s
        )
        if surviving >= coverage * in_any_core:
            best = s
    return best
