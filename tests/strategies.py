"""Shared hypothesis strategies and hand-built graphs for the tests."""

from itertools import combinations

from hypothesis import strategies as st

from repro.graph import MultiLayerGraph


@st.composite
def multilayer_graphs(draw, max_vertices=10, max_layers=4,
                      edge_probability=0.45):
    """A random small multi-layer graph on integer vertices."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    layers = draw(st.integers(min_value=1, max_value=max_layers))
    graph = MultiLayerGraph(layers, vertices=range(n))
    for layer in range(layers):
        for i in range(n):
            for j in range(i + 1, n):
                if draw(
                    st.floats(min_value=0.0, max_value=1.0)
                ) < edge_probability:
                    graph.add_edge(layer, i, j)
    return graph


@st.composite
def graph_with_layer_subset(draw, max_vertices=10, max_layers=4):
    """A random graph plus a non-empty subset of its layers."""
    graph = draw(multilayer_graphs(max_vertices, max_layers))
    layers = draw(
        st.sets(
            st.integers(min_value=0, max_value=graph.num_layers - 1),
            min_size=1,
            max_size=graph.num_layers,
        )
    )
    return graph, sorted(layers)


@st.composite
def labelled_multilayer_graphs(draw, max_vertices=10, max_layers=4,
                               edge_probability=0.45):
    """A random graph over *string* vertex labels.

    Exercises the frozen backend's label-to-dense-id mapping on a
    vocabulary that is not already ``0..n-1`` (and, occasionally, not
    sorted the way ids are assigned).
    """
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    layers = draw(st.integers(min_value=1, max_value=max_layers))
    prefix = draw(st.sampled_from(["v", "node-", ""]))
    labels = ["{}{:03d}".format(prefix, i) for i in range(n)]
    graph = MultiLayerGraph(layers, vertices=labels)
    for layer in range(layers):
        for i in range(n):
            for j in range(i + 1, n):
                if draw(
                    st.floats(min_value=0.0, max_value=1.0)
                ) < edge_probability:
                    graph.add_edge(layer, labels[i], labels[j])
    return graph


@st.composite
def search_parameters(draw, graph, max_d=4, max_k=4):
    """A ``(d, s, k)`` triple valid for ``graph``."""
    d = draw(st.integers(min_value=0, max_value=max_d))
    s = draw(st.integers(min_value=1, max_value=graph.num_layers))
    k = draw(st.integers(min_value=1, max_value=max_k))
    return d, s, k


@st.composite
def hub_graphs(draw, max_vertices=40, max_layers=2):
    """A random graph mixing a few hubs with many low-degree vertices.

    Each layer wires up to three hubs to random vertex sets, then adds
    sparse random edges and one small clique, so a full-graph peel meets
    both frontiers heavier than their survivors and the reverse.
    """
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    layers = draw(st.integers(min_value=1, max_value=max_layers))
    vertex = st.integers(min_value=0, max_value=n - 1)
    graph = MultiLayerGraph(layers, vertices=range(n))
    for layer in range(layers):
        edges = [
            (hub, v)
            for hub in draw(st.lists(vertex, max_size=3, unique=True))
            for v in draw(st.sets(vertex))
        ]
        edges += draw(st.lists(st.tuples(vertex, vertex), max_size=n))
        edges += combinations(draw(st.lists(vertex, max_size=6,
                                            unique=True)), 2)
        for u, v in edges:
            if u != v:
                graph.add_edge(layer, u, v)
    return graph


def one_layer_graph(num_vertices, edges):
    """A one-layer graph on ``range(num_vertices)``, frozen."""
    graph = MultiLayerGraph(1, vertices=range(num_vertices))
    for u, v in edges:
        graph.add_edge(0, u, v)
    return graph.freeze()


def pull_then_push_graph():
    """A layer whose full-graph 3-core peel pulls once, then pushes.

    A 4-clique on 0..3; vertex 4 adjacent to 0, 1 and the pendant 14;
    triangles on 5..7, 8..10 and 11..13.  Round 1's frontier (5..14)
    holds 19 CSR entries against the survivors' 17, so it pulls; round
    2's frontier {4} holds 3 against 14, so it pushes.  The core is 0..3.
    """
    edges = [(4, 0), (4, 1), (4, 14)]
    for block in (range(0, 4), range(5, 8), range(8, 11), range(11, 14)):
        edges += combinations(block, 2)
    return one_layer_graph(15, edges)


def star_cascade_graph(with_core=True):
    """A layer whose full-graph 2-core peel pulls three rounds.

    Centres 3..9 each hold a pendant (10..16) and an edge to the hub 17;
    eleven isolated edges join 18..39 in pairs; with ``with_core`` a
    triangle on 0..2.  The frontiers are the pendants and isolated
    edges, then the centres, then the hub: 29, 14 and 7 CSR entries
    against the survivors' 27, 13 and 6 (21, 7 and 0 without the
    triangle), so every round pulls.  The core is the triangle, or empty.
    """
    edges = [(c, c + 7) for c in range(3, 10)]
    edges += [(c, 17) for c in range(3, 10)]
    edges += [(v, v + 1) for v in range(18, 40, 2)]
    if with_core:
        edges += combinations(range(3), 2)
    return one_layer_graph(40, edges)
