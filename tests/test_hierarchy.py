"""Tests for coherent-core decomposition (core numbers across layers)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dcc import coherent_core
from repro.core.hierarchy import (
    coherent_core_hierarchy,
    coherent_core_numbers,
    coherent_degeneracy,
    densest_coherent_core,
    suggest_degree_threshold,
)
from repro.graph import MultiLayerGraph, paper_figure1_graph, replicate_layer
from repro.utils.errors import ParameterError
from tests.strategies import graph_with_layer_subset


def nested_graph():
    # Layer-identical graph: K5 {0..4} plus a triangle {4,5,6} plus a
    # pendant 7 hanging off 6.
    edges = [
        (i, j) for i in range(5) for j in range(i + 1, 5)
    ] + [(4, 5), (5, 6), (4, 6), (6, 7)]
    return replicate_layer(edges, 2)


class TestCoreNumbers:
    def test_nested_example(self):
        numbers = coherent_core_numbers(nested_graph(), [0, 1])
        assert numbers[0] == numbers[1] == numbers[2] == numbers[3] == 4
        assert numbers[5] == 2
        assert numbers[7] == 1

    def test_single_layer_matches_core_decomposition(self):
        from repro.core.dcore import layer_core_decomposition
        from tests.oracle import core_decomposition
        g = nested_graph()
        numbers = coherent_core_numbers(g, [0])
        assert numbers == core_decomposition(g.adjacency(0)) == \
            layer_core_decomposition(g, 0)

    def test_within_restriction(self):
        g = nested_graph()
        numbers = coherent_core_numbers(g, [0, 1], within={4, 5, 6})
        assert numbers == {4: 2, 5: 2, 6: 2}

    def test_empty_restriction(self):
        assert coherent_core_numbers(nested_graph(), [0], within=set()) == {}

    @given(graph_with_layer_subset(max_vertices=9, max_layers=3))
    @settings(max_examples=60, deadline=None)
    def test_numbers_agree_with_direct_dccs(self, graph_layers):
        """Core number of v == max d with v ∈ C^d_L — the definition."""
        graph, layers = graph_layers
        numbers = coherent_core_numbers(graph, layers)
        top = max(numbers.values(), default=0)
        for d in range(top + 2):
            expected = {v for v, number in numbers.items() if number >= d}
            assert coherent_core(graph, layers, d) == expected


class TestHierarchy:
    def test_chain_nests(self):
        chain = coherent_core_hierarchy(nested_graph(), [0, 1])
        for d in range(1, max(chain) + 1):
            assert chain[d] <= chain[d - 1]

    def test_chain_matches_direct(self):
        g = paper_figure1_graph()
        chain = coherent_core_hierarchy(g, [0, 2])
        for d, members in chain.items():
            assert members == coherent_core(g, [0, 2], d)

    def test_empty_graph(self):
        g = MultiLayerGraph(2, vertices=())
        assert coherent_core_hierarchy(g, [0]) == {0: frozenset()}

    def test_degeneracy(self):
        assert coherent_degeneracy(nested_graph(), [0, 1]) == 4
        g = paper_figure1_graph()
        assert coherent_degeneracy(g, [0]) >= 3

    def test_densest_core(self):
        d, members = densest_coherent_core(nested_graph(), [0, 1])
        assert d == 4
        assert members == frozenset(range(5))


class TestSuggestThreshold:
    def test_respects_min_size(self):
        g = nested_graph()
        assert suggest_degree_threshold(g, [0, 1], min_size=5) == 4
        assert suggest_degree_threshold(g, [0, 1], min_size=6) == 2

    def test_invalid_min_size(self):
        with pytest.raises(ParameterError):
            suggest_degree_threshold(nested_graph(), [0], min_size=0)

    def test_impossible_size_returns_zero_core(self):
        g = MultiLayerGraph(1, vertices=range(3))
        assert suggest_degree_threshold(g, [0], min_size=3) == 0
