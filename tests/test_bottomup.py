"""Tests for the bottom-up DCCS algorithm (BU-DCCS)."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_dccs
from repro.core.api import search_dccs
from repro.core.bottomup import bu_dccs
from repro.core.dcc import is_coherent_dense
from repro.core.greedy import gd_dccs
from repro.graph import MultiLayerGraph, paper_figure1_graph
from repro.utils.errors import ParameterError
from tests.strategies import multilayer_graphs


class TestBuDccs:
    def test_paper_example(self):
        graph = paper_figure1_graph()
        result = bu_dccs(graph, d=3, s=2, k=2)
        assert result.cover_size == 13
        assert result.algorithm == "bottom-up"
        covered = result.cover
        assert set("abcdefghi") <= covered

    def test_parameter_validation(self):
        g = paper_figure1_graph()
        with pytest.raises(ParameterError):
            bu_dccs(g, -1, 2, 2)
        with pytest.raises(ParameterError):
            bu_dccs(g, 3, 5, 2)
        with pytest.raises(ParameterError):
            bu_dccs(g, 3, 2, 0)

    def test_empty_graph_result(self):
        g = MultiLayerGraph(2, vertices=range(3))
        result = bu_dccs(g, d=1, s=2, k=2)
        assert result.sets == []

    def test_s_equals_one(self):
        g = paper_figure1_graph()
        result = bu_dccs(g, d=3, s=1, k=4)
        for layers, members in zip(result.labels, result.sets):
            assert len(layers) == 1
            assert is_coherent_dense(g, members, layers, 3)

    def test_s_equals_l(self):
        g = paper_figure1_graph()
        result = bu_dccs(g, d=3, s=4, k=2)
        for layers, members in zip(result.labels, result.sets):
            assert len(layers) == 4
            assert is_coherent_dense(g, members, layers, 3)

    def test_all_switches_off_keeps_ratio(self):
        # Without the greedy seeding, Rule 2's (1 + 1/k) growth bar can
        # freeze an early mediocre pair — that is exactly the 1/4-ratio
        # regime, not the exact optimum of 13.
        g = paper_figure1_graph()
        result = bu_dccs(
            g, d=3, s=2, k=2,
            use_vertex_deletion=False,
            use_layer_sorting=False,
            use_init_topk=False,
            use_order_pruning=False,
            use_layer_pruning=False,
        )
        assert 4 * result.cover_size >= 13
        for layers, members in zip(result.labels, result.sets):
            assert is_coherent_dense(g, members, layers, 3)

    def test_prunes_relative_to_greedy(self):
        # On a graph with clear winners and many layers, BU examines far
        # fewer candidates than greedy's binom(l, s) enumeration.
        g = MultiLayerGraph(10, vertices=range(30))
        block = list(range(10))
        for layer in range(4):
            for i, u in enumerate(block):
                for v in block[i + 1:]:
                    g.add_edge(layer, u, v)
        greedy = gd_dccs(g, d=3, s=3, k=2)
        bottom_up = bu_dccs(g, d=3, s=3, k=2)
        assert bottom_up.cover_size == greedy.cover_size
        # Greedy materialises all binom(10, 3) = 120 layer subsets; the
        # bottom-up tree offers far fewer level-s candidates.
        assert greedy.stats.candidates_generated == 120
        assert (
            bottom_up.stats.candidates_generated
            < greedy.stats.candidates_generated
        )

    @given(multilayer_graphs(max_vertices=8, max_layers=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_results_are_valid_dccs(self, graph, d, k):
        for s in range(1, graph.num_layers + 1):
            result = bu_dccs(graph, d, s, k)
            assert len(result.sets) <= k
            for layers, members in zip(result.labels, result.sets):
                assert len(layers) == s
                assert is_coherent_dense(graph, members, layers, d)

    @given(multilayer_graphs(max_vertices=8, max_layers=3),
           st.integers(min_value=1, max_value=2),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_theorem3_approximation_ratio(self, graph, d, k):
        """BU cover >= 1/4 of the optimal cover (Theorem 3), on the
        sequential path and on the engine path ``jobs=1``."""
        for s in range(1, graph.num_layers + 1):
            optimum = exact_dccs(graph, d, s, k, max_candidates=64)
            for result in (bu_dccs(graph, d, s, k),
                           search_dccs(graph, d, s, k, method="bottom-up",
                                       jobs=1)):
                assert 4 * result.cover_size >= optimum.cover_size

    @given(multilayer_graphs(max_vertices=8, max_layers=3))
    @settings(max_examples=30, deadline=None)
    def test_pruning_switches_do_not_break_ratio(self, graph):
        d, s, k = 1, min(2, graph.num_layers), 2
        optimum = exact_dccs(graph, d, s, k, max_candidates=64)
        for options in (
            {"use_order_pruning": False},
            {"use_layer_pruning": False},
            {"use_init_topk": False},
            {"use_layer_sorting": False},
            {"use_vertex_deletion": False},
        ):
            result = bu_dccs(graph, d, s, k, **options)
            assert 4 * result.cover_size >= optimum.cover_size


def dcc_call_bound(num_layers, s, k):
    """BU's dCC calls: the layer cores, the InitTopK seeds, the tree.

    Vertex deletion peels each of the ``l`` layer cores once and InitTopK
    peels ``k`` seeds.  The search tree holds the prefixes whose last
    position ``p_j`` (the ``j``-th, 0-based positions) satisfies
    ``p_j <= l - s + j - 1``: ``C(l - s + j, j)`` nodes at depth ``j``,
    ``C(l + 1, s) - 1`` over depths 1..s; each node is at most one call.
    """
    return num_layers + k + comb(num_layers + 1, s) - 1


def complement_blocks_graph(num_layers, block):
    """Layer ``i`` is a clique on every block of vertices but block ``i``.

    The d-CC of a layer set ``L`` is the union of the blocks outside
    ``L``, so it shrinks by one block per layer added.
    """
    graph = MultiLayerGraph(num_layers,
                            vertices=range(num_layers * block))
    for layer in range(num_layers):
        members = [v for v in range(num_layers * block)
                   if v // block != layer]
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                graph.add_edge(layer, u, v)
    return graph


class TestFeasiblePrefixTree:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_dcc_calls_stay_within_the_feasible_tree(self, data):
        graph = data.draw(multilayer_graphs(max_vertices=8, max_layers=5))
        d = data.draw(st.integers(min_value=0, max_value=3))
        k = data.draw(st.integers(min_value=1, max_value=4))
        for s in range(1, graph.num_layers + 1):
            result = bu_dccs(graph, d, s, k)
            assert result.stats.dcc_calls <= dcc_call_bound(
                graph.num_layers, s, k
            ), (d, s, k)

    @given(st.integers(min_value=3, max_value=7),
           st.integers(min_value=1, max_value=2),
           st.integers(min_value=1, max_value=4),
           st.data())
    @settings(max_examples=25, deadline=None)
    def test_result_set_that_never_fills_visits_only_feasible_prefixes(
            self, num_layers, block, k, data):
        # With d chosen so that every level-(s - 1) d-CC is non-empty
        # and every level-s one is empty, no candidate ever reaches R:
        # no pruning rule arms, and the search visits every prefix it
        # considers.  Without the feasibility cut it would visit all
        # C(l, j) prefixes of every depth j <= s.
        s = data.draw(st.integers(min_value=2, max_value=num_layers - 1))
        d = (num_layers - s + 1) * block - 1
        graph = complement_blocks_graph(num_layers, block)
        for search_graph in (graph, graph.freeze()):
            result = bu_dccs(search_graph, d, s, k)
            assert result.sets == []
            assert result.stats.dcc_calls == dcc_call_bound(num_layers, s, k)
