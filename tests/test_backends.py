"""Equivalence suite for the dict and frozen graph backends.

The contract under test: freezing is a pure change of representation.
Every query, every peeling primitive and every search algorithm must
return *identical* results on the two backends (modulo the dense-id /
label translation), and ``freeze()``/``thaw()`` must round-trip exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    coherent_core,
    coherent_core_binsort,
    enumerate_candidates,
    layer_core,
    search_dccs,
)
from repro.core.maintain import MultiLayerCoreMaintainer
from repro.graph import (
    BACKENDS,
    FrozenMultiLayerGraph,
    MultiLayerGraph,
    check_backend,
    paper_figure1_graph,
    resolve_search_graph,
    should_freeze,
)
from repro.utils.errors import FrozenGraphError, ParameterError, VertexError
from tests.strategies import (
    graph_with_layer_subset,
    labelled_multilayer_graphs,
    multilayer_graphs,
    search_parameters,
)


def frozen_pair(graph):
    """``(frozen, to_labels)`` for a dict-backend graph."""
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
        # bools alias their integer value, exactly as in a dict backend
        # whose vertices are ints (True == 1).
        assert frozen.has_vertex(True) == frozen.has_vertex(1)
        assert "a" not in frozen

    def test_kernel_validation_matches_generic_entry_points(self):
        """The frozen graph's kernels are reached only through checks
        that raise what the dict backend raises."""
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
        # Set operators must work, exactly as on the dict backend.
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
                assert to_labels(
                    layer_core(frozen, layer, d)
                ) == frozenset(layer_core(graph, layer, d))

    @given(graph_with_layer_subset())
    @settings(max_examples=60, deadline=None)
    def test_coherent_core_agrees(self, graph_and_layers):
        graph, layers = graph_and_layers
        frozen, to_labels = frozen_pair(graph)
        for d in (0, 1, 2, 3):
            expected = coherent_core(graph, layers, d)
            assert to_labels(coherent_core(frozen, layers, d)) == expected

    @given(graph_with_layer_subset())
    @settings(max_examples=40, deadline=None)
    def test_binsort_runs_on_frozen(self, graph_and_layers):
        graph, layers = graph_and_layers
        frozen, to_labels = frozen_pair(graph)
        for d in (1, 2):
            assert to_labels(
                coherent_core_binsort(frozen, layers, d)
            ) == coherent_core_binsort(graph, layers, d)

    @given(graph_with_layer_subset())
    @settings(max_examples=40, deadline=None)
    def test_coherent_core_within_restriction(self, graph_and_layers):
        graph, layers = graph_and_layers
        frozen, to_labels = frozen_pair(graph)
        within = {v for v in graph.vertices() if v % 2 == 0}
        expected = coherent_core(graph, layers, 1, within=within)
        got = coherent_core(
            frozen, layers, 1, within=frozen.ids_for(within)
        )
        assert to_labels(got) == expected

    def test_hash_equal_numerics_alias_their_vertex(self):
        # A dict backend over int vertices resolves 2.0 (and True) onto
        # vertex 2 (resp. 1) by hash equality; the frozen backend must
        # agree everywhere membership is decided.
        graph = MultiLayerGraph(1, vertices=range(3))
        graph.add_edge(0, 0, 1)
        graph.add_edge(0, 1, 2)
        graph.add_edge(0, 0, 2)
        frozen = graph.freeze()
        assert frozen.has_vertex(2.0) == graph.has_vertex(2.0) is True
        assert frozen.has_edge(0, 0.0, 2) == graph.has_edge(0, 0.0, 2) is True
        assert frozen.degree(0, 2.0) == graph.degree(0, 2.0)
        expected = coherent_core(graph, (0,), 2, within=[0.0, 1, 2])
        got = coherent_core(frozen, (0,), 2, within=[0.0, 1, 2])
        assert frozen.labels_for(got) == expected == frozenset({0, 1, 2})
        assert frozen.induced_degrees(0, [0.0, 1]) == graph.induced_degrees(
            0, [0.0, 1]
        )

    def test_neighbor_row_parity(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        for layer in graph.layers():
            dict_row = graph.neighbor_row(layer)
            frozen_row = frozen.neighbor_row(layer)
            for label in graph.vertices():
                assert frozen.labels_for(
                    frozen_row(frozen.id_of(label))
                ) == frozenset(dict_row(label))

    def test_within_as_iterator_with_foreign_labels(self):
        # A one-shot iterator containing a non-integer must behave like
        # the dict backend: foreign vertices dropped, the rest kept.
        graph = MultiLayerGraph(2, vertices=range(6))
        for i in range(5):
            graph.add_edge(0, i, i + 1)
            graph.add_edge(1, i, i + 1)
        frozen = graph.freeze()
        expected = coherent_core(graph, (0, 1), 1,
                                 within=iter([0, 1, 2, "x", 3, 4]))
        got = coherent_core(frozen, (0, 1), 1,
                            within=iter([0, 1, 2, "x", 3, 4]))
        assert frozen.labels_for(got) == expected

    def test_hierarchy_runs_on_frozen(self):
        from repro.core import coherent_core_numbers

        graph = paper_figure1_graph()
        frozen = graph.freeze()
        expected = coherent_core_numbers(graph, (0, 1))
        got = coherent_core_numbers(frozen, (0, 1))
        assert {
            frozen.label_of(v): number for v, number in got.items()
        } == expected

    def test_layer_view_on_frozen(self):
        from repro.graph import LayerView

        graph = paper_figure1_graph()
        frozen = graph.freeze()
        subset = frozen.ids_for(list(graph.vertices())[:6])
        view = LayerView(frozen, 0, within=subset)
        for v in view.vertices():
            assert view.degree(v) == len(view.neighbors(v))

    @given(multilayer_graphs(max_layers=3))
    @settings(max_examples=40, deadline=None)
    def test_enumerate_candidates_agrees(self, graph):
        frozen, to_labels = frozen_pair(graph)
        for s in (1, min(2, graph.num_layers)):
            expected = [
                (subset, core)
                for subset, core in enumerate_candidates(graph, 2, s)
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
        dict_maint = MultiLayerCoreMaintainer(graph, 2)
        froz_maint = MultiLayerCoreMaintainer(frozen, 2)
        victims = sorted(graph.vertices())[:2]
        dict_maint.remove(victims)
        froz_maint.remove(frozen.ids_for(victims))
        froz_maint.check_consistency()
        assert to_labels(froz_maint.alive) == frozenset(dict_maint.alive)
        for layer in graph.layers():
            assert to_labels(froz_maint.cores[layer]) == frozenset(
                dict_maint.cores[layer]
            )


# ----------------------------------------------------------------------
# whole-search equivalence
# ----------------------------------------------------------------------


class TestSearchEquivalence:
    @given(multilayer_graphs(max_vertices=9, max_layers=4))
    @settings(max_examples=30, deadline=None)
    def test_all_methods_agree_across_backends(self, graph):
        s = max(1, graph.num_layers // 2)
        for method in ("greedy", "bottom-up", "top-down"):
            base = search_dccs(
                graph, 2, s, 3, method=method, backend="dict", seed=7
            )
            frozen = search_dccs(
                graph, 2, s, 3, method=method, backend="frozen", seed=7
            )
            assert frozen.sets == base.sets
            assert frozen.labels == base.labels
            assert frozen.cover_size == base.cover_size

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_parameters_agree_across_backends(self, data):
        graph = data.draw(multilayer_graphs(max_vertices=8, max_layers=3))
        d, s, k = data.draw(search_parameters(graph))
        base = search_dccs(graph, d, s, k, backend="dict", seed=11)
        frozen = search_dccs(graph, d, s, k, backend="frozen", seed=11)
        assert frozen.sets == base.sets
        assert frozen.labels == base.labels

    @given(labelled_multilayer_graphs(max_vertices=8, max_layers=3))
    @settings(max_examples=20, deadline=None)
    def test_string_labels_survive_frozen_search(self, graph):
        base = search_dccs(graph, 1, 1, 2, method="greedy", backend="dict")
        frozen = search_dccs(graph, 1, 1, 2, method="greedy",
                             backend="frozen")
        assert frozen.sets == base.sets
        for members in frozen.sets:
            assert all(isinstance(v, str) for v in members)

    def test_prefrozen_graph_keeps_id_vocabulary(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        result = search_dccs(frozen, 3, 2, 2, backend="frozen")
        translated = search_dccs(graph, 3, 2, 2, backend="frozen")
        assert [
            frozen.labels_for(members) for members in result.sets
        ] == translated.sets

    def test_auto_backend_matches_both(self):
        graph = paper_figure1_graph()
        auto = search_dccs(graph, 3, 2, 2, backend="auto")
        explicit = search_dccs(graph, 3, 2, 2, backend="dict")
        assert auto.sets == explicit.sets

    def test_dict_backend_on_frozen_input(self):
        frozen = paper_figure1_graph().freeze()
        as_dict = search_dccs(frozen, 3, 2, 2, backend="dict")
        as_frozen = search_dccs(frozen, 3, 2, 2, backend="frozen")
        assert as_dict.sets == as_frozen.sets


# ----------------------------------------------------------------------
# backend selection policy
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_backends_constant(self):
        assert BACKENDS == ("auto", "dict", "frozen")
        assert check_backend("auto") == "auto"
        with pytest.raises(ParameterError):
            check_backend("numpy")

    def test_search_rejects_bad_backend(self):
        with pytest.raises(ParameterError):
            search_dccs(paper_figure1_graph(), 1, 1, 1, backend="bogus")

    def test_resolution_table(self):
        graph = paper_figure1_graph()
        frozen = graph.freeze()
        resolved, translate = resolve_search_graph(graph, "frozen")
        assert isinstance(resolved, FrozenMultiLayerGraph) and translate
        resolved, translate = resolve_search_graph(graph, "dict")
        assert resolved is graph and not translate
        resolved, translate = resolve_search_graph(frozen, "frozen")
        assert resolved is frozen and not translate
        resolved, translate = resolve_search_graph(frozen, "dict")
        assert isinstance(resolved, MultiLayerGraph) and not translate

    def test_dict_resolution_of_frozen_input_is_cached(self):
        frozen = paper_figure1_graph().freeze()
        first, _ = resolve_search_graph(frozen, "dict")
        second, _ = resolve_search_graph(frozen, "dict")
        assert first is second
        # thaw() itself must keep returning fresh mutable copies.
        assert frozen.thaw() is not frozen.thaw()

    def test_measure_point_warms_conversion_before_timing(self):
        from repro.experiments.runner import measure_point

        graph = MultiLayerGraph(1, vertices=range(300))
        for i in range(299):
            graph.add_edge(0, i, i + 1)
        assert graph._frozen_cache is None
        measure_point(graph, 1, 1, 2, methods=["greedy"])
        # auto resolved to frozen and the warm-up populated the cache
        # before any method timer started.
        assert graph._frozen_cache is not None

    def test_should_freeze_threshold(self):
        small = MultiLayerGraph(1, vertices=range(4))
        assert not should_freeze(small)
        big = MultiLayerGraph(1, vertices=range(5000))
        assert should_freeze(big)
        resolved, translate = resolve_search_graph(big, "auto")
        assert isinstance(resolved, FrozenMultiLayerGraph) and translate


# ----------------------------------------------------------------------
# the incremental edge-count cache (dict backend satellite)
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
