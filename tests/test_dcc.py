"""Tests for d-coherent cores: definition, paper properties, Lemma 1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dcc import (
    coherent_core,
    enumerate_candidates,
    is_coherent_dense,
    per_layer_cores,
)
from repro.core.stats import SearchStats
from repro.graph import MultiLayerGraph, paper_figure1_graph, replicate_layer
from repro.utils.errors import LayerIndexError, ParameterError
from tests.oracle import coherent_core as oracle_coherent_core
from tests.oracle import d_core
from tests.strategies import graph_with_layer_subset, multilayer_graphs


def two_layer_example():
    g = MultiLayerGraph(2, vertices=range(6))
    # Layer 0: K4 on {0,1,2,3}; layer 1: K4 on {1,2,3,4}; vertex 5 isolated.
    for block, layer in (((0, 1, 2, 3), 0), ((1, 2, 3, 4), 1)):
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                g.add_edge(layer, u, v)
    return g


class TestCoherentCoreBasics:
    def test_single_layer_equals_d_core(self):
        g = two_layer_example()
        assert coherent_core(g, [0], 3) == frozenset({0, 1, 2, 3})
        assert coherent_core(g, [1], 3) == frozenset({1, 2, 3, 4})

    def test_two_layers_intersection_shrinks(self):
        g = two_layer_example()
        # {1,2,3} has degree 2 on both layers once 0 and 4 drop out.
        assert coherent_core(g, [0, 1], 2) == frozenset({1, 2, 3})
        assert coherent_core(g, [0, 1], 3) == frozenset()

    def test_d_zero_returns_everything(self):
        g = two_layer_example()
        assert coherent_core(g, [0, 1], 0) == frozenset(range(6))

    def test_within_restriction(self):
        g = two_layer_example()
        assert coherent_core(g, [0], 2, within={0, 1, 2}) == frozenset({0, 1, 2})

    def test_empty_layer_subset_rejected(self):
        with pytest.raises(ParameterError):
            coherent_core(two_layer_example(), [], 1)

    def test_bad_layer_rejected(self):
        with pytest.raises(LayerIndexError):
            coherent_core(two_layer_example(), [5], 1)

    def test_negative_d_rejected(self):
        with pytest.raises(ParameterError):
            coherent_core(two_layer_example(), [0], -2)

    def test_duplicate_layers_collapse(self):
        g = two_layer_example()
        assert coherent_core(g, [0, 0], 3) == coherent_core(g, [0], 3)

    def test_stats_counted(self):
        stats = SearchStats()
        coherent_core(two_layer_example(), [0, 1], 3, stats=stats)
        assert stats.dcc_calls == 1
        assert stats.peel_operations > 0

    def test_replicated_layers_equal_base_core(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        g = replicate_layer(edges, 4)
        base = d_core(g.adjacency(0), 2)
        for layers in ([0], [1, 2], [0, 1, 2, 3]):
            assert coherent_core(g, layers, 2) == frozenset(base)

    def test_paper_example_cores(self):
        g = paper_figure1_graph()
        c13 = coherent_core(g, [0, 2], 3)
        c24 = coherent_core(g, [1, 3], 3)
        assert c13 == frozenset("abcdefghi") | {"y", "m"}
        assert c24 == frozenset("abcdefghi") | {"m", "n", "k"}
        # The sparse appendage {g,h,i,j} is never 3-dense.
        assert "j" not in coherent_core(g, [0], 3)


class TestPaperProperties:
    @given(graph_with_layer_subset(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_definition_and_maximality(self, graph_layers, d):
        graph, layers = graph_layers
        core = coherent_core(graph, layers, d)
        assert is_coherent_dense(graph, core, layers, d)
        # Uniqueness/maximality (Property 1): no strict superset that is
        # closed under peeling exists.
        for vertex in graph.vertices() - core:
            bigger = coherent_core(graph, layers, d, within=core | {vertex})
            assert bigger == core

    @given(graph_with_layer_subset(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_hierarchy_property(self, graph_layers, d):
        graph, layers = graph_layers
        smaller = coherent_core(graph, layers, d)
        larger = coherent_core(graph, layers, d - 1)
        assert smaller <= larger

    @given(multilayer_graphs(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_containment_property(self, graph, d):
        layers = list(range(graph.num_layers))
        full = coherent_core(graph, layers, d)
        for layer in layers:
            assert full <= coherent_core(graph, [layer], d)

    @given(multilayer_graphs(max_layers=4), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_intersection_bound_lemma1(self, graph, d):
        if graph.num_layers < 2:
            return
        half = graph.num_layers // 2
        first = list(range(half))
        second = list(range(half, graph.num_layers))
        combined = coherent_core(graph, first + second, d)
        assert combined <= (
            coherent_core(graph, first, d) & coherent_core(graph, second, d)
        )

    @given(graph_with_layer_subset(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_binsort_equals_cascade(self, graph_layers, d):
        graph, layers = graph_layers
        oracle_stats, stats = SearchStats(), SearchStats()
        assert oracle_coherent_core(
            graph, layers, d, stats=oracle_stats
        ) == coherent_core(graph, layers, d, stats=stats)
        assert stats.as_dict() == oracle_stats.as_dict()


class TestHelpers:
    def test_is_coherent_dense_rejects_outside_vertices(self):
        g = two_layer_example()
        assert not is_coherent_dense(g, {0, 99}, [0], 0)

    def test_is_coherent_dense_empty_set(self):
        g = two_layer_example()
        assert is_coherent_dense(g, set(), [0], 5)

    def test_per_layer_cores(self):
        g = two_layer_example().freeze()
        cores = per_layer_cores(g, 3)
        assert cores[0] == {0, 1, 2, 3}
        assert cores[1] == {1, 2, 3, 4}

    def test_enumerate_candidates_counts(self):
        g = two_layer_example().freeze()
        candidates = dict(enumerate_candidates(g, 2, 1))
        assert set(candidates) == {(0,), (1,)}
        pairs = dict(enumerate_candidates(g, 2, 2))
        assert set(pairs) == {(0, 1)}
        assert pairs[(0, 1)] == frozenset({1, 2, 3})

    def test_enumerate_candidates_bad_s(self):
        g = two_layer_example().freeze()
        with pytest.raises(ParameterError):
            list(enumerate_candidates(g, 2, 3))

    @given(multilayer_graphs(max_vertices=8, max_layers=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_matches_direct_computation(self, graph, d):
        frozen = graph.freeze()
        for s in range(1, graph.num_layers + 1):
            for layers, members in enumerate_candidates(frozen, d, s):
                assert members == oracle_coherent_core(graph, layers, d)
