"""Tests for d-CCs under edge updates.

A ``MultiLayerGraph`` that changes between searches is searched through
its cached ``freeze()``, which patches only the touched layers after a
small delta and carries the untouched layers' cores.  Each test mutates
a graph, asks ``coherent_core`` (and ``layer_core``) again, and holds the
answer to the reference peels of ``tests/oracle.py`` and to a fresh
freeze.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dcc import coherent_core
from repro.core.dcore import layer_core
from repro.graph import FrozenMultiLayerGraph, MultiLayerGraph, replicate_layer
from repro.utils.errors import EdgeError, ParameterError
from tests import oracle
from tests.strategies import multilayer_graphs


def triangle_graph(layers=2):
    return replicate_layer([(0, 1), (1, 2), (0, 2)], layers)


def check(graph, layers, d):
    """The streamed answers equal the reference on the current graph."""
    assert graph.freeze() == FrozenMultiLayerGraph.from_graph(graph)
    core = coherent_core(graph, layers, d)
    assert core == oracle.coherent_core(graph, layers, d)
    for layer in graph.layers():
        assert layer_core(graph, layer, d) == oracle.d_core(
            graph.adjacency(layer), d)
    return core


class TestBasics:
    def test_initial_core(self):
        assert check(triangle_graph(), [0, 1], 2) == frozenset({0, 1, 2})

    def test_negative_d(self):
        g = replicate_layer([(0, 1)], 1)
        with pytest.raises(ParameterError):
            coherent_core(g, [0], -1)

    def test_owns_a_copy(self):
        g = triangle_graph()
        frozen = g.freeze()
        g.remove_edge(0, 0, 1)  # mutate the source graph
        # The frozen snapshot keeps its own arrays.
        assert coherent_core(frozen, [0, 1], 2) == frozenset({0, 1, 2})
        assert check(g, [0, 1], 2) == frozenset()


class TestDeletion:
    def test_inside_edge_cascades(self):
        g = triangle_graph()
        check(g, [0, 1], 2)
        g.remove_edge(0, 0, 1)
        assert check(g, [0, 1], 2) == frozenset()
        # One of two layers touched: the freeze was patched.
        assert (g.freeze_patches, g.freeze_rebuilds) == (1, 1)

    def test_outside_edge_is_noop(self):
        g = replicate_layer([(0, 1), (1, 2), (0, 2), (2, 3)], 2)
        before = check(g, [0, 1], 2)
        g.remove_edge(0, 2, 3)
        assert check(g, [0, 1], 2) == before

    def test_untracked_layer_ignored(self):
        g = triangle_graph(3)
        check(g, [0, 1], 2)
        g.remove_edge(2, 0, 1)  # layer 2 is outside L
        memo = g.freeze().core_memo
        # The patched graph kept layers 0 and 1's cores and dropped 2's.
        assert (memo.kept, memo.dropped) == (2, 1)
        assert check(g, [0, 1], 2) == frozenset({0, 1, 2})


class TestInsertion:
    def test_inside_edge_is_noop(self):
        g = MultiLayerGraph(1, vertices=range(4))
        for u, v in ((0, 1), (1, 2), (0, 2), (2, 3), (0, 3)):
            g.add_edge(0, u, v)
        assert check(g, [0], 2) == frozenset({0, 1, 2, 3})
        g.add_edge(0, 1, 3)
        assert check(g, [0], 2) == frozenset({0, 1, 2, 3})

    def test_growth_from_outside(self):
        g = replicate_layer([(0, 1), (1, 2), (0, 2), (2, 3)], 1)
        assert 3 not in check(g, [0], 2)
        g.add_edge(0, 3, 0)
        assert 3 in check(g, [0], 2)

    def test_refresh_after_out_of_band_mutation(self):
        g = triangle_graph()
        check(g, [0, 1], 2)
        # New vertex 3 changes the vertex set: the next freeze rebuilds.
        g.add_edge(0, 2, 3)
        g.add_edge(0, 3, 0)
        g.add_edge(1, 2, 3)
        g.add_edge(1, 3, 0)
        assert check(g, [0, 1], 2) == frozenset({0, 1, 2, 3})


class TestErrorPaths:
    def test_remove_edge_wrong_layer_raises_edge_error(self):
        g = MultiLayerGraph(2, vertices=range(3))
        g.add_edge(0, 0, 1)
        g.add_edge(0, 1, 2)
        g.add_edge(0, 0, 2)
        before = check(g, [0], 2)
        version = g.mutation_version
        with pytest.raises(EdgeError):
            g.remove_edge(1, 0, 1)  # edge lives on layer 0 only
        assert g.mutation_version == version
        assert check(g, [0], 2) == before


UPDATES = st.lists(
    st.tuples(
        st.booleans(),                          # insert or delete
        st.integers(min_value=0, max_value=2),  # layer
        st.integers(min_value=0, max_value=7),  # u
        st.integers(min_value=0, max_value=7),  # v
    ),
    max_size=15,
)


class TestRandomisedAgainstScratch:
    @given(multilayer_graphs(max_vertices=8, max_layers=3),
           st.integers(min_value=1, max_value=3), UPDATES)
    @settings(max_examples=60, deadline=None)
    def test_patched_core_matches_recompute(self, graph, d, updates):
        layers = list(range(min(2, graph.num_layers)))
        check(graph, layers, d)
        vertices = sorted(graph.vertices())
        for insert, layer, u, v in updates:
            layer %= graph.num_layers
            u, v = vertices[u % len(vertices)], vertices[v % len(vertices)]
            if u == v:
                continue
            if insert:
                graph.add_edge(layer, u, v)
            elif graph.has_edge(layer, u, v):
                graph.remove_edge(layer, u, v)
            check(graph, layers, d)

    @given(multilayer_graphs(max_vertices=8, max_layers=3),
           st.integers(min_value=1, max_value=3), UPDATES)
    @settings(max_examples=40, deadline=None)
    def test_stream_invariants_hold_each_step(self, graph, d, updates):
        """Batched stream: each step one ``apply_delta``; a removal of a
        missing edge raises :class:`EdgeError` and leaves the graph, its
        version and its answer untouched."""
        layers = list(range(min(2, graph.num_layers)))
        vertices = sorted(graph.vertices())
        for insert, layer, u, v in updates:
            layer %= graph.num_layers
            u, v = vertices[u % len(vertices)], vertices[v % len(vertices)]
            if u == v:
                continue
            if insert:
                graph.apply_delta(add=[(layer, u, v)])
            elif graph.has_edge(layer, u, v):
                graph.apply_delta(remove=[(layer, u, v)])
            else:
                core_before = coherent_core(graph, layers, d)
                version_before = graph.mutation_version
                with pytest.raises(EdgeError):
                    graph.apply_delta(remove=[(layer, u, v)])
                assert coherent_core(graph, layers, d) == core_before
                assert graph.mutation_version == version_before
            check(graph, layers, d)
