"""Tests for GD-DCCS, the exact solver, and the approximation guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import (
    brute_force_all_subsets,
    exact_dccs,
    max_k_cover_exact,
)
from repro.core.dcc import is_coherent_dense
from repro.core.greedy import gd_dccs, greedy_max_k_cover
from repro.graph import MultiLayerGraph, paper_figure1_graph
from repro.utils.errors import ParameterError
from tests.strategies import multilayer_graphs


class TestGreedyMaxKCover:
    def test_picks_largest_first(self):
        candidates = [("a", frozenset({1})), ("b", frozenset({1, 2, 3}))]
        chosen = greedy_max_k_cover(candidates, 1)
        assert chosen[0][0] == "b"

    def test_marginal_gain_drives_selection(self):
        candidates = [
            ("a", frozenset({1, 2, 3})),
            ("b", frozenset({1, 2, 4})),
            ("c", frozenset({5, 6})),
        ]
        chosen = greedy_max_k_cover(candidates, 2)
        assert [label for label, _ in chosen] == ["a", "c"]

    def test_stops_when_nothing_gains(self):
        candidates = [("a", frozenset({1})), ("b", frozenset({1}))]
        chosen = greedy_max_k_cover(candidates, 2)
        assert len(chosen) == 1

    def test_empty_candidates(self):
        assert greedy_max_k_cover([], 3) == []

    @given(st.lists(st.frozensets(st.integers(min_value=0, max_value=12),
                                  max_size=7), max_size=9),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_masks_choose_as_set_differences_do(self, sets, k):
        """Gains counted on a covered mask pick the same sets, in the
        same order, as set differences, ties going to the earlier
        candidate; id arrays come back as the frozensets their ids
        build."""
        candidates = list(enumerate(sets))
        expected = _set_difference_cover(candidates, k)
        assert greedy_max_k_cover(candidates, k) == expected
        arrays = [(label, np.array(sorted(members), dtype=np.int32))
                  for label, members in candidates]
        chosen = greedy_max_k_cover(arrays, k)
        assert [label for label, _ in chosen] == \
            [label for label, _ in expected]
        for (_, members), (label, _) in zip(chosen, expected):
            rebuilt = frozenset(sorted(sets[label]))
            assert members == rebuilt and list(members) == list(rebuilt)


def _set_difference_cover(candidates, k):
    """The max-k-cover as set differences over the remaining
    candidates, the first largest gain winning."""
    covered = set()
    remaining = list(candidates)
    chosen = []
    while remaining and len(chosen) < k:
        gains = [len(members - covered) for _, members in remaining]
        best = gains.index(max(gains))
        if gains[best] <= 0:
            break
        label, members = remaining.pop(best)
        chosen.append((label, members))
        covered |= members
    return chosen


class TestMaxKCoverExact:
    def test_simple_optimum(self):
        sets = [frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 3})]
        picked = max_k_cover_exact(sets, 2)
        union = frozenset().union(*(sets[i] for i in picked))
        assert len(union) == 4

    def test_beats_greedy_trap(self):
        # The classic instance where pure greedy is suboptimal.
        sets = [
            frozenset({1, 2, 3, 4}),
            frozenset({1, 2, 5, 6}),
            frozenset({3, 4, 5, 6}),
        ]
        picked = max_k_cover_exact(sets, 2)
        union = frozenset().union(*(sets[i] for i in picked))
        assert len(union) == 6

    def test_k_exceeds_sets(self):
        sets = [frozenset({1})]
        assert max_k_cover_exact(sets, 5) == [0]

    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=10), max_size=6),
            max_size=8,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_dominates_greedy(self, sets, k):
        exact_pick = max_k_cover_exact(sets, k)
        exact_cover = set()
        for index in exact_pick:
            exact_cover |= sets[index]
        greedy = greedy_max_k_cover(list(enumerate(sets)), k)
        greedy_cover = set()
        for _, members in greedy:
            greedy_cover |= members
        assert len(exact_cover) >= len(greedy_cover)


class TestGdDccs:
    def test_paper_example(self):
        graph = paper_figure1_graph()
        result = gd_dccs(graph, d=3, s=2, k=2)
        assert result.cover_size == 13
        assert result.algorithm == "greedy"
        for layers, members in zip(result.labels, result.sets):
            assert is_coherent_dense(graph, members, layers, 3)

    def test_parameter_validation(self):
        g = paper_figure1_graph()
        with pytest.raises(ParameterError):
            gd_dccs(g, -1, 2, 2)
        with pytest.raises(ParameterError):
            gd_dccs(g, 3, 0, 2)
        with pytest.raises(ParameterError):
            gd_dccs(g, 3, 9, 2)
        with pytest.raises(ParameterError):
            gd_dccs(g, 3, 2, 0)

    def test_no_dense_subgraph(self):
        g = MultiLayerGraph(2, vertices=range(4))
        g.add_edge(0, 0, 1)
        result = gd_dccs(g, d=2, s=1, k=3)
        assert result.sets == []
        assert result.cover_size == 0

    @given(multilayer_graphs(max_vertices=8, max_layers=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_results_are_valid_dccs(self, graph, d, k):
        for s in range(1, graph.num_layers + 1):
            result = gd_dccs(graph, d, s, k)
            assert len(result.sets) <= k
            for layers, members in zip(result.labels, result.sets):
                assert len(layers) == s
                assert is_coherent_dense(graph, members, layers, d)

    @given(multilayer_graphs(max_vertices=8, max_layers=3),
           st.integers(min_value=1, max_value=2),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_theorem2_approximation_ratio(self, graph, d, k):
        """Greedy cover >= (1 - 1/e) * optimal cover (Theorem 2)."""
        s = 1
        optimum = exact_dccs(graph, d, s, k, max_candidates=64)
        greedy = gd_dccs(graph, d, s, k)
        bound = (1.0 - 1.0 / math.e) * optimum.cover_size
        assert greedy.cover_size >= bound - 1e-9


class TestExactDccs:
    def test_matches_brute_force(self):
        g = paper_figure1_graph()
        exact = exact_dccs(g, 3, 2, 2)
        brute = brute_force_all_subsets(g, 3, 2, 2)
        brute_cover = set()
        for _, members in brute:
            brute_cover |= members
        assert exact.cover_size == len(brute_cover) == 13

    def test_candidate_limit(self):
        g = paper_figure1_graph()
        with pytest.raises(ParameterError):
            exact_dccs(g, 1, 2, 2, max_candidates=1)

    @given(multilayer_graphs(max_vertices=7, max_layers=3),
           st.integers(min_value=1, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_exact_at_least_greedy(self, graph, k):
        d, s = 1, 1
        exact = exact_dccs(graph, d, s, k, max_candidates=64)
        greedy = gd_dccs(graph, d, s, k)
        assert exact.cover_size >= greedy.cover_size
