"""Unit and property tests for the single-layer d-core reference peels."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle import core_decomposition, core_sizes_by_threshold, d_core
from repro.utils.errors import ParameterError


def adjacency_from_edges(edges, vertices=()):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def triangle_plus_tail():
    # Triangle a-b-c with a path c-d-e hanging off it.
    return adjacency_from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")]
    )


def naive_d_core(adj, d, within=None):
    alive = set(adj) if within is None else set(within) & set(adj)
    while True:
        bad = {v for v in alive if len(adj[v] & alive) < d}
        if not bad:
            return alive
        alive -= bad


@st.composite
def random_adjacency(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    vertices = list(range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return adjacency_from_edges(edges, vertices)


class TestDCore:
    def test_zero_core_is_everything(self):
        adj = triangle_plus_tail()
        assert d_core(adj, 0) == set(adj)

    def test_two_core_is_triangle(self):
        assert d_core(triangle_plus_tail(), 2) == {"a", "b", "c"}

    def test_high_d_empty(self):
        assert d_core(triangle_plus_tail(), 3) == set()

    def test_negative_d(self):
        with pytest.raises(ParameterError):
            d_core(triangle_plus_tail(), -1)

    def test_within_restriction(self):
        adj = triangle_plus_tail()
        # Without c the triangle collapses entirely for d=2.
        assert d_core(adj, 2, within={"a", "b", "d", "e"}) == set()

    def test_within_unknown_vertices_ignored(self):
        adj = triangle_plus_tail()
        assert d_core(adj, 2, within={"a", "b", "c", "zz"}) == {"a", "b", "c"}

    def test_empty_graph(self):
        assert d_core({}, 1) == set()

    @given(random_adjacency(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_peeling(self, adj, d):
        assert d_core(adj, d) == naive_d_core(adj, d)

    @given(random_adjacency(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_result_is_d_dense_and_maximal(self, adj, d):
        core = d_core(adj, d)
        for v in core:
            assert len(adj[v] & core) >= d
        # Maximality: adding any outside vertex breaks closure under
        # peeling (the naive fixed point from the larger seed shrinks back).
        for v in set(adj) - core:
            assert naive_d_core(adj, d, within=core | {v}) == core


class TestCoreDecomposition:
    def test_triangle_plus_tail(self):
        core = core_decomposition(triangle_plus_tail())
        assert core == {"a": 2, "b": 2, "c": 2, "d": 1, "e": 1}

    def test_empty(self):
        assert core_decomposition({}) == {}

    def test_single_vertex(self):
        assert core_decomposition({"v": set()}) == {"v": 0}

    @given(random_adjacency())
    @settings(max_examples=100, deadline=None)
    def test_core_number_consistent_with_d_core(self, adj):
        core = core_decomposition(adj)
        max_core = max(core.values(), default=0)
        for d in range(max_core + 2):
            expected = {v for v, value in core.items() if value >= d}
            assert d_core(adj, d) == expected

    @given(random_adjacency())
    @settings(max_examples=50, deadline=None)
    def test_within_restriction_matches_subgraph(self, adj):
        keep = {v for v in adj if v % 2 == 0}
        restricted = core_decomposition(adj, within=keep)
        sub_adj = {v: adj[v] & keep for v in keep}
        assert restricted == core_decomposition(sub_adj)


class TestCoreSizes:
    def test_sizes_histogram(self):
        sizes = core_sizes_by_threshold(triangle_plus_tail())
        assert sizes[0] == 5
        assert sizes[1] == 5
        assert sizes[2] == 3

    def test_empty(self):
        assert core_sizes_by_threshold({}) == {0: 0}

    @given(random_adjacency())
    @settings(max_examples=50, deadline=None)
    def test_sizes_match_d_core(self, adj):
        sizes = core_sizes_by_threshold(adj)
        for d, size in sizes.items():
            assert size == len(d_core(adj, d))
