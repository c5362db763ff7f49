"""Tests for the top-down DCCS algorithm (TD-DCCS) and its machinery."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import exact_dccs
from repro.core.api import search_dccs
from repro.core.dcc import coherent_core, is_coherent_dense
from repro.core.index import CoreHierarchyIndex
from repro.core.preprocess import order_layers, vertex_deletion
from repro.core.refine import refine_core, refine_potential, split_layer_classes
from repro.core.topdown import td_dccs
from repro.graph import MultiLayerGraph, paper_figure1_graph
from repro.utils.errors import ParameterError
from tests import oracle
from tests.strategies import multilayer_graphs


class TestSplitLayerClasses:
    def test_root_everything_free(self):
        locked, free = split_layer_classes({0, 1, 2, 3}, 4)
        assert locked == set()
        assert free == {0, 1, 2, 3}

    def test_missing_middle(self):
        # positions {0, 1, 3} of 4: missing = {2}; locked = {0, 1}.
        locked, free = split_layer_classes({0, 1, 3}, 4)
        assert locked == {0, 1}
        assert free == {3}

    def test_missing_tail_locks_everything(self):
        # Missing = {3}: every position of L is below max(missing), so the
        # node is a dead end of the canonical tree (nothing removable).
        locked, free = split_layer_classes({0, 1, 2}, 4)
        assert locked == {0, 1, 2}
        assert free == set()


class TestTdDccs:
    def test_paper_example(self):
        result = td_dccs(paper_figure1_graph(), d=3, s=2, k=2)
        assert result.cover_size == 13
        assert result.algorithm == "top-down"

    def test_s_equals_l(self):
        g = paper_figure1_graph()
        result = td_dccs(g, d=3, s=4, k=3)
        assert len(result.sets) <= 1  # the root is the only candidate
        for layers, members in zip(result.labels, result.sets):
            assert is_coherent_dense(g, members, layers, 3)

    def test_parameter_validation(self):
        g = paper_figure1_graph()
        with pytest.raises(ParameterError):
            td_dccs(g, -1, 2, 2)
        with pytest.raises(ParameterError):
            td_dccs(g, 3, 0, 2)
        with pytest.raises(ParameterError):
            td_dccs(g, 3, 2, -1)

    def test_no_index_variant(self):
        g = paper_figure1_graph()
        with_index = td_dccs(g, d=3, s=2, k=2, use_index=True)
        without = td_dccs(g, d=3, s=2, k=2, use_index=False)
        assert with_index.cover_size == without.cover_size == 13

    def test_all_switches_off_keeps_ratio(self):
        g = paper_figure1_graph()
        result = td_dccs(
            g, d=3, s=2, k=2,
            use_vertex_deletion=False,
            use_layer_sorting=False,
            use_init_topk=False,
            use_order_pruning=False,
            use_potential_pruning=False,
            use_index=False,
        )
        assert 4 * result.cover_size >= 13
        for layers, members in zip(result.labels, result.sets):
            assert is_coherent_dense(g, members, layers, 3)

    @given(multilayer_graphs(max_vertices=8, max_layers=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_results_are_valid_dccs(self, graph, d, k):
        for s in range(1, graph.num_layers + 1):
            result = td_dccs(graph, d, s, k)
            assert len(result.sets) <= k
            for layers, members in zip(result.labels, result.sets):
                assert len(layers) == s
                assert is_coherent_dense(graph, members, layers, d)

    @given(multilayer_graphs(max_vertices=8, max_layers=3),
           st.integers(min_value=1, max_value=2),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_theorem4_approximation_ratio(self, graph, d, k):
        """TD cover >= 1/4 of the optimal cover (Theorem 4), on the
        sequential path and on the engine path ``jobs=1``."""
        for s in range(1, graph.num_layers + 1):
            optimum = exact_dccs(graph, d, s, k, max_candidates=64)
            for result in (td_dccs(graph, d, s, k),
                           search_dccs(graph, d, s, k, method="top-down",
                                       jobs=1)):
                assert 4 * result.cover_size >= optimum.cover_size


class TestIndex:
    def test_index_partitions_vertices(self):
        g = paper_figure1_graph().freeze()
        index = CoreHierarchyIndex(g, d=3)
        assert len(index) == g.num_vertices
        assert all(v in index for v in g.vertices())
        total = sum(len(batch) for _, batch in index.levels)
        assert total == g.num_vertices

    def test_thresholds_monotone_along_levels(self):
        g = paper_figure1_graph().freeze()
        index = CoreHierarchyIndex(g, d=3)
        thresholds = [threshold for threshold, _ in index.levels]
        assert thresholds == sorted(thresholds)

    def test_scope_lemma8(self):
        g = paper_figure1_graph().freeze()
        index = CoreHierarchyIndex(g, d=3)
        for size in (1, 2, 3, 4):
            scope = set(np.flatnonzero(index.scope(size)).tolist())
            # Every d-CC on `size` layers lives inside the scope.
            for layers in combinations(range(4), size):
                core = coherent_core(g, layers, 3)
                assert core <= scope

    def test_labels_cover_core_membership(self):
        g = paper_figure1_graph().freeze()
        index = CoreHierarchyIndex(g, d=3)
        # The dense block {a..i} is in every layer's 3-core at removal.
        for vertex in "abcdefghi":
            v = g.id_of(vertex)
            assert sum(mask[v] for mask in index.label_masks) == 4

    @given(multilayer_graphs(max_vertices=8, max_layers=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_reachable_scope_is_sound(self, graph, d):
        """Lemma 8 + Lemma 9 filters never exclude a d-CC member."""
        frozen = graph.freeze()
        index = CoreHierarchyIndex(frozen, d)
        everything = np.ones(frozen.num_vertices, dtype=bool)
        for size in range(1, graph.num_layers + 1):
            for layers in combinations(range(graph.num_layers), size):
                core = coherent_core(frozen, layers, d)
                zone = index.reachable_scope(layers, everything)
                assert core <= set(np.flatnonzero(zone).tolist())


class TestRefinement:
    def test_refine_potential_contains_descendant_cores(self):
        g = paper_figure1_graph().freeze()
        prep = vertex_deletion(g, 3, 2)
        cores, alive = prep.kernel_view()
        order = order_layers(cores, descending=False)
        # Child {1, 2, 3} of the root (dropping position 0): all its
        # positions stay removable, so its level-2 descendants are the
        # three pairs inside it — all must live inside the potential set.
        positions = frozenset({1, 2, 3})
        potential = set(np.flatnonzero(refine_potential(
            g, 3, 2, alive, positions, order, cores
        )).tolist())
        for pair in combinations(sorted(positions), 2):
            layers = sorted(order[p] for p in pair)
            assert coherent_core(g, layers, 3) <= set(potential)
        assert coherent_core(
            g, sorted(order[p] for p in positions), 3
        ) <= set(potential)

    @given(multilayer_graphs(max_vertices=10, max_layers=5,
                             edge_probability=0.6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_refine_core_in_a_search_is_the_full_graph_dcc(self, graph,
                                                           data):
        """Every RefineC child of a top-down search, sequential or
        sharded, is the d-CC of its layers over the whole graph the
        search runs on, which lets that graph keep it."""
        from unittest import mock

        from repro.core import search_dccs

        d = data.draw(st.integers(min_value=1, max_value=4))
        s = data.draw(st.integers(min_value=1, max_value=graph.num_layers))
        options = data.draw(st.fixed_dictionaries({
            "use_vertex_deletion": st.booleans(),
            "use_index": st.booleans(),
            "use_potential_pruning": st.booleans(),
        }))
        checked = []

        def pinned(graph, d, positions, potential, order, index,
                   stats=None):
            core = refine_core(graph, d, positions, potential, order, index,
                               stats=stats)
            layers = sorted(order[p] for p in positions)
            assert core == coherent_core(graph.with_empty_memo(), layers, d)
            checked.append(layers)
            return core

        for jobs in (None, 1):
            with mock.patch("repro.core.topdown.refine_core", pinned):
                search_dccs(graph.freeze().with_empty_memo(), d, s, 3,
                            method="top-down", jobs=jobs, seed=0,
                            **options)
        # Every root child is a RefineC child.
        assert checked or s == graph.num_layers

    @given(multilayer_graphs(max_vertices=8, max_layers=4),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_refine_core_equals_dcc(self, graph, d):
        """RefineC output == plain dCC on the same potential (DESIGN §5.6)."""
        frozen = graph.freeze()
        index = CoreHierarchyIndex(frozen, d)
        order = list(range(graph.num_layers))
        everything = np.ones(frozen.num_vertices, dtype=bool)
        for size in range(1, graph.num_layers + 1):
            for positions in combinations(range(graph.num_layers), size):
                expected = oracle.coherent_core(graph, list(positions), d)
                got = refine_core(
                    frozen, d, positions, everything, order, index
                )
                assert got == expected
