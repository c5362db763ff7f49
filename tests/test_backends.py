"""Equivalence suite for the two graph classes and the search boundary.

The contract under test: freezing is a pure change of representation.
Every query and every peeling primitive must agree between a
``MultiLayerGraph`` and its frozen form (modulo the dense-id / label
translation) and with the reference peels of ``tests/oracle.py``; every
search handed a ``MultiLayerGraph`` must answer what the same search on
the pre-frozen graph answers, in labels; and ``freeze()``/``thaw()``
must round-trip exactly.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    coherent_core,
    enumerate_candidates,
    layer_core,
    search_dccs,
)
from repro.core.maintain import ArrayCoreMaintainer
from repro.graph import (
    FrozenMultiLayerGraph,
    MultiLayerGraph,
    paper_figure1_graph,
    resolve_search_graph,
)
from repro.utils.errors import FrozenGraphError, ParameterError, VertexError
from tests import oracle
from tests.strategies import (
    graph_with_layer_subset,
    labelled_multilayer_graphs,
    multilayer_graphs,
    search_parameters,
)


def frozen_pair(graph):
    """``(frozen, to_labels)`` for a ``MultiLayerGraph``."""
    frozen = graph.freeze()
    return frozen, frozen.labels_for


# ----------------------------------------------------------------------
# round trip and structural equivalence
# ----------------------------------------------------------------------


class TestFreezeThawRoundTrip:
    @given(multilayer_graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_identity(self, graph):
        assert graph.freeze().thaw() == graph

    @given(labelled_multilayer_graphs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_with_string_labels(self, graph):
        thawed = graph.freeze().thaw()
        assert thawed == graph
        assert thawed.name == graph.name

    @given(multilayer_graphs())
    @settings(max_examples=40, deadline=None)
    def test_structure_preserved(self, graph):
        frozen = graph.freeze()
        assert frozen.num_layers == graph.num_layers
        assert frozen.num_vertices == graph.num_vertices
        assert frozen.total_edges() == graph.total_edges()
        assert frozen.union_edge_count() == graph.union_edge_count()
        for layer in graph.layers():
            assert frozen.num_edges(layer) == graph.num_edges(layer)

    @given(labelled_multilayer_graphs(max_vertices=8))
    @settings(max_examples=40, deadline=None)
    def test_per_vertex_queries_agree(self, graph):
        frozen = graph.freeze()
        for label in graph.vertices():
            vid = frozen.id_of(label)
            assert frozen.label_of(vid) == label
            assert frozen.layers_of(vid) == graph.layers_of(label)
            for layer in graph.layers():
                assert frozen.degree(layer, vid) == graph.degree(layer, label)
                assert frozen.labels_for(
                    frozen.neighbors(layer, vid)
                ) == frozenset(graph.neighbors(layer, label))

    @given(multilayer_graphs(max_vertices=8))
    @settings(max_examples=40, deadline=None)
    def test_induced_degrees_agree(self, graph):
        frozen = graph.freeze()
        vertices = sorted(graph.vertices())
        subset = set(vertices[::2])
        ids = frozen.ids_for(subset)
        for layer in graph.layers():
            expected = graph.induced_degrees(layer, subset)
            got = frozen.induced_degrees(layer, ids)
            assert {
                frozen.label_of(v): deg for v, deg in got.items()
            } == expected

    def test_has_edge_agrees(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        for layer in graph.layers():
            for u in graph.vertices():
                for v in graph.vertices():
                    assert frozen.has_edge(
                        layer, frozen.id_of(u), frozen.id_of(v)
                    ) == graph.has_edge(layer, u, v)

    def test_freeze_is_cached_until_mutation(self):
        graph = paper_figure1_graph()
        first = graph.freeze()
        assert graph.freeze() is first
        graph.add_edge(0, "a", "zz-new")
        second = graph.freeze()
        assert second is not first
        assert second.num_vertices == first.num_vertices + 1
        # Re-adding an existing edge is a no-op and must keep the cache.
        third = graph.freeze()
        graph.add_edge(0, "a", "zz-new")
        assert graph.freeze() is third


# ----------------------------------------------------------------------
# immutability and vocabulary
# ----------------------------------------------------------------------


class TestFrozenBehaviour:
    def test_mutation_raises(self):
        frozen = paper_figure1_graph().freeze()
        for attempt in (
            lambda: frozen.add_vertex("x"),
            lambda: frozen.add_vertices(["x"]),
            lambda: frozen.add_edge(0, 1, 2),
            lambda: frozen.add_edges(0, [(1, 2)]),
            lambda: frozen.remove_edge(0, 1, 2),
            lambda: frozen.remove_vertex(1),
            lambda: frozen.remove_vertices([1]),
        ):
            with pytest.raises(FrozenGraphError):
                attempt()

    def test_vertices_are_dense_ints(self):
        frozen = paper_figure1_graph().freeze()
        assert frozen.vertices() == set(range(frozen.num_vertices))
        assert set(frozen) == frozen.vertices()
        assert len(frozen) == frozen.num_vertices
        assert 0 in frozen and frozen.has_vertex(frozen.num_vertices - 1)
        assert frozen.num_vertices not in frozen
        # bools alias their integer value, exactly as in a
        # MultiLayerGraph whose vertices are ints (True == 1).
        assert frozen.has_vertex(True) == frozen.has_vertex(1)
        assert "a" not in frozen

    def test_kernel_validation_matches_generic_entry_points(self):
        """The kernels are reached only through checks that raise the
        same errors for either graph."""
        from repro.utils.errors import LayerIndexError

        graph = paper_figure1_graph()
        for backend in (graph, graph.freeze()):
            with pytest.raises(ParameterError):
                coherent_core(backend, (0, 1), -1)
            with pytest.raises(LayerIndexError):
                coherent_core(backend, (99,), 1)
            with pytest.raises(ParameterError):
                layer_core(backend, 0, -1)
            with pytest.raises(LayerIndexError):
                layer_core(backend, 99, 1)

    def test_unknown_label_raises(self):
        frozen = paper_figure1_graph().freeze()
        with pytest.raises(VertexError):
            frozen.id_of("nope")
        with pytest.raises(VertexError):
            frozen.label_of(10 ** 9)

    def test_freeze_of_frozen_is_self(self):
        frozen = paper_figure1_graph().freeze()
        assert frozen.freeze() is frozen

    def test_thaw_keeping_ids(self):
        frozen = paper_figure1_graph().freeze()
        thawed = frozen.thaw(original_labels=False)
        assert thawed.vertices() == frozen.vertices()
        assert thawed.total_edges() == frozen.total_edges()

    def test_memory_estimate_positive_and_smaller(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        assert 0 < frozen.memory_bytes() < graph.memory_bytes()

    def test_neighbors_is_set_valued(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        nbrs = frozen.neighbors(0, frozen.id_of("a"))
        # Set operators must work, exactly as on a MultiLayerGraph.
        assert nbrs & frozen.vertices() == set(nbrs)
        merged = set()
        merged |= nbrs
        assert merged == set(nbrs)

    def test_adjacency_compatibility_view(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        adjacency = frozen.adjacency(1)
        assert set(adjacency) == frozen.vertices()
        for v, nbrs in adjacency.items():
            assert frozen.labels_for(nbrs) == frozenset(
                graph.neighbors(1, frozen.label_of(v))
            )
        # Cached: repeated access returns the same object.
        assert frozen.adjacency(1) is adjacency


# ----------------------------------------------------------------------
# peeling primitive equivalence
# ----------------------------------------------------------------------


class TestPrimitiveEquivalence:
    @given(graph_with_layer_subset())
    @settings(max_examples=60, deadline=None)
    def test_layer_core_agrees(self, graph_and_layers):
        graph, layers = graph_and_layers
        frozen, to_labels = frozen_pair(graph)
        for layer in layers:
            for d in (1, 2, 3):
                expected = oracle.d_core(graph.adjacency(layer), d)
                assert to_labels(layer_core(frozen, layer, d)) == expected
                assert layer_core(graph, layer, d) == expected

    @given(graph_with_layer_subset())
    @settings(max_examples=60, deadline=None)
    def test_coherent_core_agrees(self, graph_and_layers):
        graph, layers = graph_and_layers
        frozen, to_labels = frozen_pair(graph)
        for d in (0, 1, 2, 3):
            expected = oracle.coherent_core(graph, layers, d)
            assert to_labels(coherent_core(frozen, layers, d)) == expected
            assert coherent_core(graph, layers, d) == expected

    @given(graph_with_layer_subset())
    @settings(max_examples=40, deadline=None)
    def test_binsort_runs_on_frozen(self, graph_and_layers):
        graph, layers = graph_and_layers
        frozen, to_labels = frozen_pair(graph)
        for d in (1, 2):
            assert to_labels(
                oracle.coherent_core(frozen, layers, d)
            ) == oracle.coherent_core(graph, layers, d)

    @given(graph_with_layer_subset())
    @settings(max_examples=40, deadline=None)
    def test_coherent_core_within_restriction(self, graph_and_layers):
        graph, layers = graph_and_layers
        frozen, to_labels = frozen_pair(graph)
        within = {v for v in graph.vertices() if v % 2 == 0}
        expected = oracle.coherent_core(graph, layers, 1, within=within)
        got = coherent_core(
            frozen, layers, 1, within=frozen.ids_for(within)
        )
        assert to_labels(got) == expected
        assert coherent_core(graph, layers, 1, within=within) == expected

    def test_hash_equal_numerics_alias_their_vertex(self):
        # A MultiLayerGraph over int vertices resolves 2.0 (and True)
        # onto vertex 2 (resp. 1) by hash equality; the frozen graph and
        # the label boundary must agree everywhere membership is decided.
        graph = MultiLayerGraph(1, vertices=range(3))
        graph.add_edge(0, 0, 1)
        graph.add_edge(0, 1, 2)
        graph.add_edge(0, 0, 2)
        frozen = graph.freeze()
        assert frozen.has_vertex(2.0) == graph.has_vertex(2.0) is True
        assert frozen.has_edge(0, 0.0, 2) == graph.has_edge(0, 0.0, 2) is True
        assert frozen.degree(0, 2.0) == graph.degree(0, 2.0)
        expected = oracle.coherent_core(graph, (0,), 2, within=[0.0, 1, 2])
        got = coherent_core(frozen, (0,), 2, within=[0.0, 1, 2])
        assert frozen.labels_for(got) == expected == frozenset({0, 1, 2})
        assert coherent_core(graph, (0,), 2, within=[0.0, 1, 2]) == expected
        assert frozen.induced_degrees(0, [0.0, 1]) == graph.induced_degrees(
            0, [0.0, 1]
        )

    def test_within_as_iterator_with_foreign_labels(self):
        # A one-shot iterator containing a non-integer must behave like
        # a set of labels: foreign vertices dropped, the rest kept.
        graph = MultiLayerGraph(2, vertices=range(6))
        for i in range(5):
            graph.add_edge(0, i, i + 1)
            graph.add_edge(1, i, i + 1)
        frozen = graph.freeze()
        expected = oracle.coherent_core(graph, (0, 1), 1,
                                        within=iter([0, 1, 2, "x", 3, 4]))
        got = coherent_core(frozen, (0, 1), 1,
                            within=iter([0, 1, 2, "x", 3, 4]))
        assert frozen.labels_for(got) == expected
        assert coherent_core(graph, (0, 1), 1,
                             within=iter([0, 1, 2, "x", 3, 4])) == expected

    def test_hierarchy_runs_on_frozen(self):
        from repro.core import coherent_core_numbers

        graph = paper_figure1_graph()
        frozen = graph.freeze()
        expected = coherent_core_numbers(graph, (0, 1))
        got = coherent_core_numbers(frozen, (0, 1))
        assert {
            frozen.label_of(v): number for v, number in got.items()
        } == expected

    @given(multilayer_graphs(max_layers=3))
    @settings(max_examples=40, deadline=None)
    def test_enumerate_candidates_agrees(self, graph):
        frozen, to_labels = frozen_pair(graph)
        for s in (1, min(2, graph.num_layers)):
            expected = [
                (subset, oracle.coherent_core(graph, subset, 2))
                for subset in combinations(graph.layers(), s)
            ]
            got = [
                (subset, to_labels(core))
                for subset, core in enumerate_candidates(frozen, 2, s)
            ]
            assert got == expected

    @given(multilayer_graphs(max_layers=3))
    @settings(max_examples=30, deadline=None)
    def test_maintainer_agrees_under_deletion(self, graph):
        frozen, to_labels = frozen_pair(graph)
        maintainer = ArrayCoreMaintainer(frozen, 2)
        victims = sorted(graph.vertices())[:2]
        maintainer.remove(np.array(sorted(frozen.ids_for(victims))))
        oracle.check_maintainer(maintainer)
        alive, cores, _ = maintainer.snapshot()
        survivors = graph.vertices() - set(victims)
        assert to_labels(alive) == survivors
        for layer in graph.layers():
            assert to_labels(cores[layer]) == oracle.d_core(
                graph.adjacency(layer), 2, within=survivors
            )


# ----------------------------------------------------------------------
# whole-search equivalence
# ----------------------------------------------------------------------


class TestSearchEquivalence:
    """A ``MultiLayerGraph`` against the same graph pre-frozen, whose
    answer ``labels_for`` translates."""

    @staticmethod
    def assert_same(graph, d, s, k, **options):
        frozen = graph.freeze()
        base = search_dccs(frozen, d, s, k, **options)
        got = search_dccs(graph, d, s, k, **options)
        assert got.sets == [frozen.labels_for(members)
                            for members in base.sets]
        assert got.labels == base.labels
        assert got.cover_size == base.cover_size
        assert got.stats.as_dict() == base.stats.as_dict()
        return got

    @given(multilayer_graphs(max_vertices=9, max_layers=4))
    @settings(max_examples=30, deadline=None)
    def test_all_methods_agree_across_backends(self, graph):
        s = max(1, graph.num_layers // 2)
        for method in ("greedy", "bottom-up", "top-down"):
            self.assert_same(graph, 2, s, 3, method=method, seed=7)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_parameters_agree_across_backends(self, data):
        graph = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        d, s, k = data.draw(search_parameters(graph))
        self.assert_same(graph, d, s, k, seed=11)

    @given(labelled_multilayer_graphs(max_vertices=8, max_layers=3))
    @settings(max_examples=20, deadline=None)
    def test_string_labels_survive_frozen_search(self, graph):
        result = self.assert_same(graph, 1, 1, 2, method="greedy")
        for members in result.sets:
            assert all(isinstance(v, str) for v in members)

    def test_prefrozen_graph_keeps_id_vocabulary(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        result = search_dccs(frozen, 3, 2, 2)
        translated = search_dccs(graph, 3, 2, 2)
        assert [
            frozen.labels_for(members) for members in result.sets
        ] == translated.sets

    def test_auto_backend_matches_both(self):
        # Figure 1: C_{1,3} and C_{2,4} (Section I), whichever graph
        # the search is handed.
        graph = paper_figure1_graph()
        result = self.assert_same(graph, 3, 2, 2)
        assert result.cover_size == 13

    def test_dict_backend_on_frozen_input(self):
        # A frozen graph and its id-keyed thaw answer alike.
        frozen = paper_figure1_graph().freeze()
        as_frozen = search_dccs(frozen, 3, 2, 2)
        as_thawed = search_dccs(frozen.thaw(original_labels=False), 3, 2, 2)
        assert as_thawed.sets == as_frozen.sets


# ----------------------------------------------------------------------
# the freeze-and-translate boundary
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_search_rejects_bad_backend(self):
        for jobs in (None, 1):
            with pytest.raises(ParameterError,
                               match="unknown option 'backend'"):
                search_dccs(paper_figure1_graph(), 1, 1, 1,
                            backend="frozen", jobs=jobs)

    def test_resolution_table(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        resolved, translate = resolve_search_graph(graph)
        assert resolved is frozen and translate
        resolved, translate = resolve_search_graph(frozen)
        assert resolved is frozen and not translate
        with pytest.raises(ParameterError, match="pass its .graph"):
            from repro.datasets import load

            resolve_search_graph(load("ppi", scale=0.1))

    def test_measure_point_warms_conversion_before_timing(self):
        from repro.experiments.runner import measure_point

        graph = MultiLayerGraph(1, vertices=range(300))
        for i in range(299):
            graph.add_edge(0, i, i + 1)
        assert graph._frozen_cache is None
        measure_point(graph, 1, 1, 2, methods=["greedy"])
        # The warm-up populated the freeze cache before any method
        # timer started.
        assert graph._frozen_cache is not None

    def test_should_freeze_threshold(self):
        # Every graph freezes, however small: a four-vertex graph
        # resolves to its cached frozen form like a 5000-vertex one.
        for n in (4, 5000):
            graph = MultiLayerGraph(1, vertices=range(n))
            resolved, translate = resolve_search_graph(graph)
            assert isinstance(resolved, FrozenMultiLayerGraph) and translate
            assert resolved is graph.freeze()


class TestBoundary:
    """Which functions take a ``MultiLayerGraph`` and which a frozen one."""

    def test_boundary_functions_answer_in_labels(self):
        from repro.baselines import exact_dccs
        from repro.core import bu_dccs, gd_dccs, td_dccs
        from repro.core import layer_core_decomposition, layer_core_sizes
        from repro.engine import DCCEngine

        graph = paper_figure1_graph()
        frozen = graph.freeze()
        labels = set(graph.vertices())
        assert all(isinstance(v, str) for v in labels)

        def check(got, base):
            assert got.sets == [frozen.labels_for(members)
                                for members in base.sets]
            assert got.labels == base.labels
            assert set().union(*got.sets) <= labels

        for search in (gd_dccs, bu_dccs, td_dccs, exact_dccs):
            check(search(graph, 3, 2, 2), search(frozen, 3, 2, 2))
        for method in ("greedy", "bottom-up", "top-down"):
            for jobs in (None, 1):
                check(search_dccs(graph, 3, 2, 2, method=method, jobs=jobs),
                      search_dccs(frozen, 3, 2, 2, method=method, jobs=jobs))
        with DCCEngine(graph, jobs=1) as engine:
            check(engine.search(3, 2, 2), search_dccs(frozen, 3, 2, 2,
                                                      jobs=1))
        within = ["a", "b", "c", "d", "nope"]
        assert coherent_core(graph, (0, 2), 2, within=within) == \
            frozen.labels_for(coherent_core(frozen, (0, 2), 2,
                                            within=frozen.ids_for(within[:4])))
        assert layer_core(graph, 0, 3) == set(
            frozen.labels_for(layer_core(frozen, 0, 3)))
        assert layer_core_decomposition(graph, 1) == {
            frozen.label_of(v): core
            for v, core in layer_core_decomposition(frozen, 1).items()}
        assert layer_core_sizes(graph, 1) == layer_core_sizes(frozen, 1)
        with pytest.raises(ParameterError, match="mask"):
            coherent_core(graph, (0,), 1,
                          within=np.ones(frozen.num_vertices, dtype=bool))

    def test_below_boundary_rejects_a_multilayer_graph(self):
        from repro.core import (
            CoreHierarchyIndex,
            init_topk,
            per_layer_cores,
            refine_core,
            refine_potential,
            vertex_deletion,
        )
        from repro.core.dcc import candidate_for_subset

        graph = paper_figure1_graph()
        prep = vertex_deletion(graph.freeze(), 3, 2)
        cores, alive = prep.kernel_view()
        below = (
            lambda: vertex_deletion(graph, 3, 2),
            lambda: ArrayCoreMaintainer(graph, 3),
            lambda: CoreHierarchyIndex(graph, 3),
            lambda: init_topk(graph, 3, 2, 2, cores, within=alive),
            lambda: refine_potential(graph, 3, 2, alive, {0, 1},
                                     list(range(4)), cores),
            lambda: refine_core(graph, 3, {0, 1}, alive, list(range(4)),
                                None),
            lambda: list(enumerate_candidates(graph, 3, 2)),
            lambda: per_layer_cores(graph, 3),
            lambda: candidate_for_subset(graph, 3, (0, 1), cores),
        )
        for call in below:
            with pytest.raises(ParameterError, match=r"freeze\(\)"):
                call()

    def test_old_backend_inputs_fail_typed(self):
        import asyncio

        from repro.aio import AsyncDCCHost
        from repro.cli import main
        from repro.engine import DCCEngine
        from repro.host import DCCHost

        # search_dccs: see TestBackendSelection.test_search_rejects_bad_backend.
        graph = paper_figure1_graph()
        with pytest.raises(TypeError, match="backend"):
            DCCEngine(graph, backend="dict")
        with pytest.raises(TypeError, match="backend"):
            DCCHost(backend="dict")
        with DCCHost() as host:
            with pytest.raises(TypeError, match="backend"):
                host.attach("g", graph, backend="dict")

        async def make_async_host():
            async with AsyncDCCHost(backend="dict"):
                pass

        with pytest.raises(TypeError, match="backend"):
            asyncio.run(make_async_host())
        for argv in (["info", "figure1"], ["search", "figure1"],
                     ["batch", "figure1", "queries.json"],
                     ["host", "spec.json"], ["serve", "spec.json"]):
            with pytest.raises(SystemExit) as exited:
                main(argv + ["--backend", "dict"])
            assert exited.value.code == 2


# ----------------------------------------------------------------------
# the incremental edge-count cache of MultiLayerGraph
# ----------------------------------------------------------------------


class TestEdgeCountCache:
    def test_add_remove_sequence_stays_consistent(self):
        graph = MultiLayerGraph(2, vertices=range(5))
        assert graph.num_edges(0) == 0
        graph.add_edge(0, 0, 1)
        graph.add_edge(0, 0, 1)  # duplicate must not double-count
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 3, 4)
        assert graph.num_edges(0) == 2
        assert graph.num_edges(1) == 1
        assert graph.total_edges() == 3
        graph.remove_edge(0, 0, 1)
        assert graph.num_edges(0) == 1
        graph.remove_vertex(1)
        assert graph.num_edges(0) == 0
        assert graph.total_edges() == 1
        graph.validate()

    @given(multilayer_graphs())
    @settings(max_examples=40, deadline=None)
    def test_cache_matches_recount(self, graph):
        for layer in graph.layers():
            recounted = sum(
                1 for _ in graph.edges(layer)
            )
            assert graph.num_edges(layer) == recounted
        graph.validate()

    def test_derived_graphs_inherit_counts(self):
        graph = paper_figure1_graph()
        copied = graph.copy()
        assert copied.total_edges() == graph.total_edges()
        copied.validate()
        sub = graph.induced_subgraph(list(graph.vertices())[:8])
        sub.validate()
        layers = graph.subgraph_of_layers([0, 2])
        assert layers.num_edges(0) == graph.num_edges(0)
        assert layers.num_edges(1) == graph.num_edges(2)
        layers.validate()

    def test_has_vertex_sugar(self):
        graph = MultiLayerGraph(1, vertices=["a"])
        assert graph.has_vertex("a")
        assert not graph.has_vertex("b")
        assert "a" in graph
