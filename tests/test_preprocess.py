"""Tests for vertex deletion, support counts and layer ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dcc import coherent_core, enumerate_candidates
from repro.core.preprocess import (
    compute_support,
    order_layers,
    vertex_deletion,
)
from repro.core.stats import SearchStats
from repro.graph import MultiLayerGraph, paper_figure1_graph
from repro.utils.errors import ParameterError
from tests.strategies import multilayer_graphs


def two_community_graph():
    g = MultiLayerGraph(3, vertices=range(9))
    # Community A = K4 {0..3} on layers 0 and 1; community B = K4 {4..7}
    # only on layer 2; vertex 8 isolated.
    for block, layers in (((0, 1, 2, 3), (0, 1)), ((4, 5, 6, 7), (2,))):
        for layer in layers:
            for i, u in enumerate(block):
                for v in block[i + 1:]:
                    g.add_edge(layer, u, v)
    return g


class TestVertexDeletion:
    """On the frozen graph; ``two_community_graph``'s ids are its labels."""

    def test_deletes_low_support_vertices(self):
        g = two_community_graph().freeze()
        prep = vertex_deletion(g, d=3, s=2)
        # Community B supports only one layer, so s=2 kills it; A survives.
        assert prep.alive == {0, 1, 2, 3}
        assert prep.deleted == 5

    def test_support_counts(self):
        g = two_community_graph().freeze()
        prep = vertex_deletion(g, d=3, s=1)
        assert prep.support[0] == 2
        assert prep.support[4] == 1
        assert 8 not in prep.alive

    def test_disabled_keeps_everything(self):
        g = two_community_graph().freeze()
        prep = vertex_deletion(g, d=3, s=2, enabled=False)
        assert prep.alive == g.vertices()
        assert prep.deleted == 0

    def test_invalid_s(self):
        with pytest.raises(ParameterError, match="s must be"):
            vertex_deletion(two_community_graph().freeze(), 2, 0)
        with pytest.raises(ParameterError, match="s must be"):
            vertex_deletion(two_community_graph().freeze(), 2, 4)
        with pytest.raises(ParameterError, match=r"freeze\(\)"):
            vertex_deletion(two_community_graph(), 2, 2)

    def test_stats(self):
        stats = SearchStats()
        vertex_deletion(two_community_graph().freeze(), 3, 2, stats=stats)
        assert stats.vertices_deleted == 5

    def test_paper_example(self):
        g = paper_figure1_graph().freeze()
        alive = g.labels_for(vertex_deletion(g, d=3, s=2).alive)
        # x and j never sit in any 3-core, so they are deleted.
        assert "x" not in alive
        assert "j" not in alive
        assert set("abcdefghi") <= alive

    @given(multilayer_graphs(max_vertices=9, max_layers=3),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_deletion_is_lossless_for_candidates(self, graph, d):
        """No d-CC with |L| = s loses vertices to the preprocessing."""
        frozen = graph.freeze()
        for s in range(1, graph.num_layers + 1):
            prep = vertex_deletion(frozen, d, s)
            for layers, members in enumerate_candidates(frozen, d, s):
                assert members <= prep.alive
                # And recomputing inside the alive set changes nothing.
                assert members == coherent_core(
                    graph, layers, d, within=prep.alive
                )

    @given(multilayer_graphs(max_vertices=9, max_layers=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_fixed_point_support(self, graph, d):
        s = min(2, graph.num_layers)
        prep = vertex_deletion(graph.freeze(), d, s)
        for vertex in prep.alive:
            assert prep.support.get(vertex, 0) >= s


class TestSupportAndOrdering:
    def test_compute_support(self):
        support = compute_support([{1, 2}, {2, 3}, {2}])
        assert support == {1: 1, 2: 3, 3: 1}

    def test_order_layers_descending(self):
        cores = [{1}, {1, 2, 3}, {1, 2}]
        assert order_layers(cores, descending=True) == [1, 2, 0]

    def test_order_layers_ascending(self):
        cores = [{1}, {1, 2, 3}, {1, 2}]
        assert order_layers(cores, descending=False) == [0, 2, 1]

    def test_order_layers_disabled(self):
        cores = [{1}, {1, 2, 3}, {1, 2}]
        assert order_layers(cores, enabled=False) == [0, 1, 2]
