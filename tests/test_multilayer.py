"""Unit tests for the MultiLayerGraph substrate."""

import pytest

from repro.graph import MultiLayerGraph
from repro.utils.errors import (
    GraphError,
    LayerIndexError,
    ParameterError,
    VertexError,
)


def small_graph():
    g = MultiLayerGraph(3, vertices=["a", "b", "c", "d"])
    g.add_edge(0, "a", "b")
    g.add_edge(0, "b", "c")
    g.add_edge(1, "a", "c")
    g.add_edge(2, "a", "b")
    g.add_edge(2, "c", "d")
    return g


class TestConstruction:
    @pytest.mark.parametrize("layers", ["two", True, False, 2.0, None])
    def test_num_layers_must_be_an_integer(self, layers):
        with pytest.raises(ParameterError, match="num_layers must be an"):
            MultiLayerGraph(layers)

    def test_requires_at_least_one_layer(self):
        with pytest.raises(ParameterError):
            MultiLayerGraph(0)

    def test_initial_vertices(self):
        g = MultiLayerGraph(2, vertices=[1, 2, 3])
        assert g.num_vertices == 3
        assert g.vertices() == {1, 2, 3}

    def test_num_layers(self):
        assert MultiLayerGraph(5).num_layers == 5

    def test_vertices_isolated_on_all_layers(self):
        g = MultiLayerGraph(3, vertices=["x"])
        for layer in g.layers():
            assert g.degree(layer, "x") == 0

    def test_empty_graph_len(self):
        assert len(MultiLayerGraph(1)) == 0

    def test_name(self):
        assert MultiLayerGraph(1, name="demo").name == "demo"


class TestMutation:
    def test_add_edge_creates_endpoints(self):
        g = MultiLayerGraph(2)
        g.add_edge(1, "u", "v")
        assert "u" in g and "v" in g
        assert g.has_edge(1, "u", "v")
        assert not g.has_edge(0, "u", "v")

    def test_add_edge_is_symmetric(self):
        g = small_graph()
        assert "b" in g.neighbors(0, "a")
        assert "a" in g.neighbors(0, "b")

    def test_self_loop_rejected(self):
        g = MultiLayerGraph(1)
        with pytest.raises(ParameterError):
            g.add_edge(0, "v", "v")

    def test_duplicate_edge_is_noop(self):
        g = MultiLayerGraph(1)
        g.add_edge(0, "a", "b")
        g.add_edge(0, "a", "b")
        assert g.num_edges(0) == 1

    def test_bad_layer(self):
        g = MultiLayerGraph(2)
        with pytest.raises(LayerIndexError):
            g.add_edge(2, "a", "b")
        with pytest.raises(LayerIndexError):
            g.add_edge(-1, "a", "b")

    @pytest.mark.parametrize("layer", ["0", 0.0, 1.0, True, None, [0]])
    def test_wrong_typed_layer_raises_parameter_error(self, layer):
        g = small_graph()
        version = g.mutation_version
        for mutate in (
            lambda: g.add_edge(layer, "a", "zz"),
            lambda: g.remove_edge(layer, "a", "b"),
            lambda: g.apply_delta(add=[(layer, "a", "zz")]),
            lambda: g.apply_delta(remove=[(layer, "a", "b")]),
        ):
            with pytest.raises(ParameterError, match="layer must be an"):
                mutate()
        assert g.mutation_version == version
        assert "zz" not in g

    def test_numpy_integer_layer_accepted(self):
        import numpy as np

        g = small_graph()
        g.add_edge(np.int64(1), "a", "b")
        assert g.has_edge(1, "a", "b")

    def test_unhashable_vertex_raises_parameter_error(self):
        g = small_graph()
        version = g.mutation_version
        for mutate in (
            lambda: g.add_vertex(["x"]),
            lambda: g.add_vertices(["ok", ["x"]]),
            lambda: g.add_edge(0, ["x"], "a"),
            lambda: g.add_edge(0, "a", {"x": 1}),
            lambda: g.remove_edge(0, "a", ["b"]),
            lambda: g.apply_delta(add=[(0, "a", ["x"])]),
        ):
            with pytest.raises(ParameterError, match="must be hashable"):
                mutate()
        # add_vertices applied "ok" before it met the list; nothing else
        # changed.
        assert g.vertices() == {"a", "b", "c", "d", "ok"}
        assert g.mutation_version == version + 1

    def test_delta_checked_before_any_edge_applies(self):
        g = small_graph()
        version = g.mutation_version
        for bad in ((1, "a", "d", "extra"), 7, (True, "a", "zz")):
            with pytest.raises(ParameterError):
                g.apply_delta(add=[(0, "a", "d"), bad])
        with pytest.raises(LayerIndexError):
            g.apply_delta(add=[(0, "a", "d"), (3, "a", "d")])
        assert not g.has_edge(0, "a", "d")
        assert g.mutation_version == version

    def test_remove_edge(self):
        g = small_graph()
        g.remove_edge(0, "a", "b")
        assert not g.has_edge(0, "a", "b")
        assert g.has_edge(2, "a", "b")

    def test_remove_missing_edge(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.remove_edge(1, "b", "d")

    def test_remove_vertex(self):
        g = small_graph()
        g.remove_vertex("b")
        assert "b" not in g
        assert "b" not in g.neighbors(0, "a")
        assert g.validate()

    def test_remove_missing_vertex(self):
        g = small_graph()
        with pytest.raises(VertexError):
            g.remove_vertex("zz")

    def test_remove_vertices(self):
        g = small_graph()
        g.remove_vertices(["a", "b"])
        assert g.vertices() == {"c", "d"}
        assert g.validate()


class TestQueries:
    def test_degree(self):
        g = small_graph()
        assert g.degree(0, "b") == 2
        assert g.degree(1, "b") == 0

    def test_min_degree_over(self):
        g = small_graph()
        assert g.min_degree_over([0, 2], "a") == 1
        assert g.min_degree_over([0, 1], "b") == 0

    def test_num_edges(self):
        g = small_graph()
        assert g.num_edges(0) == 2
        assert g.num_edges(1) == 1
        assert g.total_edges() == 5

    def test_union_edge_count(self):
        g = small_graph()
        # Distinct pairs: ab, bc, ac, cd.
        assert g.union_edge_count() == 4

    def test_edges_emitted_once(self):
        g = small_graph()
        edges = list(g.edges(0))
        assert len(edges) == 2
        assert len({frozenset(edge) for edge in edges}) == 2

    def test_all_edges(self):
        g = small_graph()
        assert sum(1 for _ in g.all_edges()) == 5

    def test_neighbors_of_missing_vertex(self):
        g = small_graph()
        with pytest.raises(VertexError):
            g.neighbors(0, "zz")

    def test_summary(self):
        summary = small_graph().summary()
        assert summary["vertices"] == 4
        assert summary["layers"] == 3


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = small_graph()
        h = g.copy()
        h.add_edge(1, "b", "d")
        assert not g.has_edge(1, "b", "d")
        assert g != h

    def test_copy_equality(self):
        g = small_graph()
        assert g.copy() == g

    def test_induced_subgraph(self):
        g = small_graph()
        sub = g.induced_subgraph({"a", "b", "c"})
        assert sub.vertices() == {"a", "b", "c"}
        assert sub.has_edge(0, "a", "b")
        assert not sub.has_edge(2, "c", "d")
        assert sub.validate()

    def test_induced_subgraph_ignores_unknown(self):
        g = small_graph()
        sub = g.induced_subgraph({"a", "nope"})
        assert sub.vertices() == {"a"}

    def test_subgraph_of_layers(self):
        g = small_graph()
        sub = g.subgraph_of_layers([0, 2])
        assert sub.num_layers == 2
        assert sub.has_edge(1, "c", "d")
        assert sub.vertices() == g.vertices()

    def test_subgraph_of_layers_empty(self):
        with pytest.raises(ParameterError):
            small_graph().subgraph_of_layers([])

    def test_validate_detects_asymmetry(self):
        g = small_graph()
        g.adjacency(0)["a"].add("d")  # corrupt on purpose
        with pytest.raises(GraphError):
            g.validate()
