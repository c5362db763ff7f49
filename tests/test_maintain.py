"""Tests for the incremental multi-layer core maintainer."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.kernels as kernels_module
from repro.core.dcore import d_core, layer_core
from repro.core.maintain import (
    ArrayCoreMaintainer,
    MultiLayerCoreMaintainer,
    core_maintainer,
)
from repro.core.stats import SearchStats
from repro.graph import MultiLayerGraph
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
    return g


def tiers(graph):
    """``graph`` itself, then its frozen form."""
    yield graph
    yield graph.freeze()


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


def as_batch(maintainer, vertices):
    """``vertices`` as ``maintainer.remove`` takes them."""
    if isinstance(maintainer, ArrayCoreMaintainer):
        import numpy as np

        return np.array(vertices, dtype=np.int64)
    return vertices


class TestMaintainer:
    def test_initial_state_matches_scratch(self):
        m = MultiLayerCoreMaintainer(ladder_graph(), 2)
        m.check_consistency()
        assert m.support[0] == 2

    def test_remove_cascades(self):
        g = ladder_graph()
        m = MultiLayerCoreMaintainer(g, 2)
        m.remove([0])
        # Layer 0's 2-core dies entirely (cycle broken); layer 1 keeps the
        # triangle {3,4,5} and loses {1,2}.
        assert m.cores[0] == set()
        assert m.cores[1] == {3, 4, 5}
        m.check_consistency()

    def test_remove_dead_vertex_is_noop(self):
        m = MultiLayerCoreMaintainer(ladder_graph(), 2)
        m.remove([0])
        before = [set(core) for core in m.cores]
        m.remove([0])
        assert [set(core) for core in m.cores] == before

    def test_within_restriction(self):
        g = ladder_graph()
        m = MultiLayerCoreMaintainer(g, 2, within={0, 1, 2, 3})
        assert m.cores[1] == {0, 1, 2}
        assert m.alive == {0, 1, 2, 3}

    def test_stats_counted(self):
        stats = SearchStats()
        MultiLayerCoreMaintainer(ladder_graph(), 2, stats=stats)
        assert stats.dcc_calls == 2

    def test_layers_containing(self):
        m = MultiLayerCoreMaintainer(ladder_graph(), 2)
        assert m.layers_containing(0) == frozenset({0, 1})
        m.remove([4])
        # Removing 4 breaks the layer-0 cycle (2-core empties) and peels
        # {3, 5} from the layer-1 triangle.
        assert m.layers_containing(3) == frozenset()
        assert m.layers_containing(1) == frozenset({1})

    @given(
        multilayer_graphs(max_vertices=9, max_layers=3),
        st.integers(min_value=0, max_value=4),
        st.lists(st.integers(min_value=0, max_value=8), max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_equivalent_to_recompute_after_any_deletions(self, graph, d, removals):
        m = MultiLayerCoreMaintainer(graph, d)
        vertices = sorted(graph.vertices())
        for index in removals:
            if not vertices:
                break
            victim = vertices[index % len(vertices)]
            m.remove([victim])
            if victim in vertices:
                vertices.remove(victim)
            for layer in graph.layers():
                assert m.cores[layer] == d_core(
                    graph.adjacency(layer), d, within=m.alive
                )
        m.check_consistency()

    @given(
        multilayer_graphs(max_vertices=9, max_layers=3),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_seeded_matches_unseeded(self, graph, d):
        """Seeding from precomputed layer cores changes nothing observable.

        The engine's selective artifact cache hands surviving per-layer
        cores back to the maintainer after a delta; the seeded maintainer
        must be indistinguishable from a cold one — same cores, alive set,
        support table, and (by contract) the same ``dcc_calls`` charge —
        and so must every cascade after it.
        """
        for graph in tiers(graph):
            seeds = {
                layer: layer_core(graph, layer, d)
                for layer in graph.layers()
            }
            cold_stats, seeded_stats = SearchStats(), SearchStats()
            cold = core_maintainer(graph, d, stats=cold_stats)
            seeded = core_maintainer(graph, d, stats=seeded_stats,
                                     seed_cores=seeds)
            assert seeded.snapshot() == cold.snapshot()
            assert seeded_stats.dcc_calls == cold_stats.dcc_calls
            victims = sorted(graph.vertices())[::2]
            seeded.remove(as_batch(seeded, victims))
            cold.remove(as_batch(cold, victims))
            assert seeded.snapshot() == cold.snapshot()
            seeded.check_consistency()

    @given(
        multilayer_graphs(max_vertices=9, max_layers=3),
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0, max_value=8), max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_removal_stream_consistent_each_step(self, graph, d, removals):
        """check_consistency() holds after *every* step of a removal stream."""
        for graph in tiers(graph):
            m = core_maintainer(graph, d)
            vertices = sorted(graph.vertices())
            for index in removals:
                if not vertices:
                    break
                victim = vertices.pop(index % len(vertices))
                m.remove(as_batch(m, [victim]))
                assert victim not in m.snapshot()[0]
                m.check_consistency()

    @given(multilayer_graphs(max_vertices=9, max_layers=3))
    @settings(max_examples=40, deadline=None)
    def test_batch_removal_equals_sequential(self, graph):
        for graph in tiers(graph):
            batch = sorted(graph.vertices())[::2]
            together = core_maintainer(graph, 2)
            together.remove(as_batch(together, batch))
            one_by_one = core_maintainer(graph, 2)
            for vertex in batch:
                one_by_one.remove(as_batch(one_by_one, [vertex]))
            assert together.snapshot() == one_by_one.snapshot()
            together.check_consistency()


class TestArrayMaintainer:
    """The array maintainer against the set-based reference."""

    def test_factory_picks_by_tier(self):
        graph = ladder_graph()
        frozen = graph.freeze()
        assert isinstance(core_maintainer(frozen, 2), ArrayCoreMaintainer)
        assert type(core_maintainer(graph, 2)) is MultiLayerCoreMaintainer

    def test_interface_matches_reference(self):
        import numpy as np

        frozen = ladder_graph().freeze()
        array = core_maintainer(frozen, 2)
        reference = MultiLayerCoreMaintainer(frozen, 2)
        assert len(array) == len(reference) == 6
        assert array.labels_of(np.array([0, 3])) == \
            reference.labels_of([0, 3])
        assert array.remove(np.array([4])).tolist() == [4]
        # A dead vertex is skipped.
        assert array.remove(np.array([3, 4])).tolist() == [3]
        reference.remove([4, 3])
        assert array.snapshot() == reference.snapshot()
        assert set(array.below(1).tolist()) == set(reference.below(1))
        array.check_consistency()

    @given(
        multilayer_graphs(max_vertices=9, max_layers=3),
        st.integers(min_value=0, max_value=4),
        st.lists(st.integers(min_value=0, max_value=8), max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_each_step(self, graph, d, removals):
        frozen = graph.freeze()
        m = core_maintainer(frozen, d)
        reference = MultiLayerCoreMaintainer(frozen, d)
        vertices = list(range(frozen.num_vertices))
        for index in removals:
            if not vertices:
                break
            victim = vertices.pop(index % len(vertices))
            m.remove(as_batch(m, [victim]))
            reference.remove([victim])
            assert m.snapshot() == reference.snapshot()
            for threshold in range(frozen.num_layers + 2):
                batch = m.below(threshold)
                assert set(batch.tolist()) == set(reference.below(threshold))
                assert m.labels_of(batch) == \
                    reference.labels_of(batch.tolist())

    @pytest.mark.parametrize("build, d, pulls", [
        (pull_then_push_graph, 3, 1),
        (star_cascade_graph, 2, 3),
        (lambda: star_cascade_graph(with_core=False), 2, 3),
    ])
    def test_consistent_right_after_a_pulling_build(self, build, d, pulls):
        frozen = build().freeze()
        m, pulled = pulled_rounds(lambda: core_maintainer(frozen, d))
        assert pulled == pulls
        m.check_consistency()
        assert m.snapshot() == MultiLayerCoreMaintainer(frozen, d).snapshot()

    @given(hub_graphs(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_consistent_right_after_build_on_hub_graphs(self, graph, d):
        frozen = graph.freeze()
        m = core_maintainer(frozen, d)
        m.check_consistency()
        assert m.snapshot() == MultiLayerCoreMaintainer(frozen, d).snapshot()
