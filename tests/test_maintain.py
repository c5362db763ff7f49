"""Tests for the incremental multi-layer core maintainer.

The maintainer is held to a from-scratch recomputation with the
reference peels of ``tests/oracle.py`` after every step.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.kernels as kernels_module
from repro.core.maintain import ArrayCoreMaintainer
from repro.core.stats import SearchStats
from repro.graph import MultiLayerGraph
from repro.utils.errors import ParameterError
from tests.oracle import check_maintainer, d_core
from tests.strategies import (
    hub_graphs,
    multilayer_graphs,
    pull_then_push_graph,
    star_cascade_graph,
)


def ladder_graph():
    g = MultiLayerGraph(2, vertices=range(6))
    # Layer 0: 6-cycle; layer 1: two triangles.
    for i in range(6):
        g.add_edge(0, i, (i + 1) % 6)
    for tri in ((0, 1, 2), (3, 4, 5)):
        for i, u in enumerate(tri):
            for v in tri[i + 1:]:
                g.add_edge(1, u, v)
    return g.freeze()


def pulled_rounds(build):
    """``build()``'s result and the number of pull rounds it ran."""
    calls = []
    count_live = kernels_module._count_live

    def counting(*args):
        calls.append(args)
        return count_live(*args)

    with mock.patch.object(kernels_module, "_count_live", counting):
        built = build()
    return built, len(calls)


def batch(vertices):
    """``vertices`` as ``ArrayCoreMaintainer.remove`` takes them."""
    return np.array(vertices, dtype=np.int64)


def scratch_state(graph, d, alive):
    """``(alive, cores, support)`` recomputed with the reference peel."""
    cores = [d_core(graph.adjacency(layer), d, within=alive)
             for layer in graph.layers()]
    support = {v: sum(v in core for core in cores) for v in alive}
    return set(alive), cores, support


class TestMaintainer:
    def test_initial_state_matches_scratch(self):
        m = ArrayCoreMaintainer(ladder_graph(), 2)
        check_maintainer(m)
        assert m.snapshot()[2][0] == 2

    def test_remove_cascades(self):
        m = ArrayCoreMaintainer(ladder_graph(), 2)
        m.remove(batch([0]))
        # Layer 0's 2-core dies entirely (cycle broken); layer 1 keeps the
        # triangle {3,4,5} and loses {1,2}.
        _, cores, _ = m.snapshot()
        assert cores[0] == set()
        assert cores[1] == {3, 4, 5}
        check_maintainer(m)

    def test_remove_dead_vertex_is_noop(self):
        m = ArrayCoreMaintainer(ladder_graph(), 2)
        m.remove(batch([0]))
        before = m.snapshot()
        assert m.remove(batch([0])).tolist() == []
        assert m.snapshot() == before

    def test_within_restriction(self):
        m = ArrayCoreMaintainer(ladder_graph(), 2, within={0, 1, 2, 3})
        alive, cores, _ = m.snapshot()
        assert cores[1] == {0, 1, 2}
        assert alive == {0, 1, 2, 3}

    def test_stats_counted(self):
        stats = SearchStats()
        ArrayCoreMaintainer(ladder_graph(), 2, stats=stats)
        assert stats.dcc_calls == 2

    def test_layers_containing(self):
        m = ArrayCoreMaintainer(ladder_graph(), 2)
        assert m.labels_of(batch([0])) == {0: frozenset({0, 1})}
        m.remove(batch([4]))
        # Removing 4 breaks the layer-0 cycle (2-core empties) and peels
        # {3, 5} from the layer-1 triangle.
        assert m.labels_of(batch([3, 1])) == {
            3: frozenset(), 1: frozenset({1})}

    @given(
        multilayer_graphs(max_vertices=9, max_layers=3),
        st.integers(min_value=0, max_value=4),
        st.lists(st.integers(min_value=0, max_value=8), max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_equivalent_to_recompute_after_any_deletions(self, graph, d, removals):
        frozen = graph.freeze()
        m = ArrayCoreMaintainer(frozen, d)
        vertices = sorted(graph.vertices())
        for index in removals:
            if not vertices:
                break
            victim = vertices[index % len(vertices)]
            m.remove(batch([victim]))
            if victim in vertices:
                vertices.remove(victim)
            alive, cores, _ = m.snapshot()
            for layer in graph.layers():
                assert cores[layer] == d_core(
                    graph.adjacency(layer), d, within=alive
                )
        check_maintainer(m)

    @given(
        multilayer_graphs(max_vertices=9, max_layers=3),
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0, max_value=8), max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_removal_stream_consistent_each_step(self, graph, d, removals):
        """The oracle check holds after *every* step of a removal stream."""
        m = ArrayCoreMaintainer(graph.freeze(), d)
        vertices = sorted(graph.vertices())
        for index in removals:
            if not vertices:
                break
            victim = vertices.pop(index % len(vertices))
            m.remove(batch([victim]))
            assert victim not in m.snapshot()[0]
            check_maintainer(m)

    @given(multilayer_graphs(max_vertices=9, max_layers=3))
    @settings(max_examples=40, deadline=None)
    def test_batch_removal_equals_sequential(self, graph):
        frozen = graph.freeze()
        doomed = sorted(graph.vertices())[::2]
        together = ArrayCoreMaintainer(frozen, 2)
        together.remove(batch(doomed))
        one_by_one = ArrayCoreMaintainer(frozen, 2)
        for vertex in doomed:
            one_by_one.remove(batch([vertex]))
        assert together.snapshot() == one_by_one.snapshot()
        check_maintainer(together)


class TestArrayMaintainer:
    """The array maintainer against a from-scratch recomputation."""

    def test_rejects_a_multilayer_graph(self):
        with pytest.raises(ParameterError, match=r"freeze\(\)"):
            ArrayCoreMaintainer(ladder_graph().thaw(), 2)

    def test_interface_matches_reference(self):
        frozen = ladder_graph()
        array = ArrayCoreMaintainer(frozen, 2)
        assert len(array) == 6
        assert array.labels_of(batch([0, 3])) == {
            0: frozenset({0, 1}), 3: frozenset({0, 1})}
        assert array.remove(batch([4])).tolist() == [4]
        # A dead vertex is skipped.
        assert array.remove(batch([3, 4])).tolist() == [3]
        assert array.snapshot() == scratch_state(frozen, 2, {0, 1, 2, 5})
        _, _, support = array.snapshot()
        assert set(array.below(1).tolist()) == {
            v for v, count in support.items() if count < 1}
        check_maintainer(array)

    @given(
        multilayer_graphs(max_vertices=9, max_layers=3),
        st.integers(min_value=0, max_value=4),
        st.lists(st.integers(min_value=0, max_value=8), max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_each_step(self, graph, d, removals):
        frozen = graph.freeze()
        m = ArrayCoreMaintainer(frozen, d)
        vertices = list(range(frozen.num_vertices))
        alive = set(vertices)
        for index in removals:
            if not vertices:
                break
            victim = vertices.pop(index % len(vertices))
            m.remove(batch([victim]))
            alive.discard(victim)
            expected = scratch_state(frozen, d, alive)
            assert m.snapshot() == expected
            _, cores, support = expected
            for threshold in range(frozen.num_layers + 2):
                below = m.below(threshold)
                assert set(below.tolist()) == {
                    v for v in alive if support[v] < threshold}
                assert m.labels_of(below) == {
                    v: frozenset(layer for layer, core in enumerate(cores)
                                 if v in core)
                    for v in below.tolist()
                }

    @pytest.mark.parametrize("build, d, pulls", [
        (pull_then_push_graph, 3, 1),
        (star_cascade_graph, 2, 3),
        (lambda: star_cascade_graph(with_core=False), 2, 3),
    ])
    def test_consistent_right_after_a_pulling_build(self, build, d, pulls):
        frozen = build().freeze()
        m, pulled = pulled_rounds(lambda: ArrayCoreMaintainer(frozen, d))
        assert pulled == pulls
        check_maintainer(m)
        assert m.snapshot() == scratch_state(
            frozen, d, set(range(frozen.num_vertices)))

    @given(hub_graphs(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_consistent_right_after_build_on_hub_graphs(self, graph, d):
        frozen = graph.freeze()
        m = ArrayCoreMaintainer(frozen, d)
        check_maintainer(m)
        assert m.snapshot() == scratch_state(
            frozen, d, set(range(frozen.num_vertices)))
