"""Tests for graph I/O and builders."""

import pytest

from repro.graph import (
    MultiLayerGraph,
    from_adjacency,
    from_edge_lists,
    from_json_dict,
    from_networkx_layers,
    read_edge_list,
    read_json,
    replicate_layer,
    to_json_dict,
    write_edge_list,
    write_json,
)
from repro.utils.errors import LayerIndexError, ParameterError


def sample_graph():
    g = MultiLayerGraph(2, vertices=["a", "b", "c", "lonely"])
    g.add_edge(0, "a", "b")
    g.add_edge(1, "b", "c")
    return g


class TestEdgeListRoundTrip:
    def test_round_trip(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.num_layers == 2
        assert back.vertices() == {"a", "b", "c", "lonely"}
        assert back.has_edge(0, "a", "b")
        assert back.has_edge(1, "b", "c")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 a\n")
        with pytest.raises(ParameterError):
            read_edge_list(path)

    @pytest.mark.parametrize("content, message", [
        ("x a c\n", "line 1: layer 'x' is not an integer"),
        ("0 a b\n1.5 b c\n", "line 2: layer '1.5' is not an integer"),
        ("# layers: two\n0 a b\n",
         "line 1: layer count 'two' is not an integer"),
        ("# note\n\n0 a\n", "line 3: malformed edge line"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, content, message):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ParameterError) as raised:
            read_edge_list(path)
        assert str(raised.value).startswith(str(path))
        assert message in str(raised.value)

    def test_empty_file_without_layers(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ParameterError):
            read_edge_list(path)
        assert read_edge_list(path, num_layers=3).num_layers == 3

    def test_layer_count_inferred(self, tmp_path):
        path = tmp_path / "no-header.txt"
        path.write_text("0 a b\n2 b c\n")
        assert read_edge_list(path).num_layers == 3


class TestJsonRoundTrip:
    def test_round_trip_dict(self):
        g = sample_graph()
        back = from_json_dict(to_json_dict(g))
        assert back.vertices() == g.vertices()
        assert back.has_edge(0, "a", "b")
        assert back.num_layers == g.num_layers

    def test_round_trip_file(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "graph.json"
        write_json(g, path)
        back = read_json(path, name="renamed")
        assert back.name == "renamed"
        assert back.union_edge_count() == g.union_edge_count()

    @pytest.mark.parametrize("payload", [{"not": "a graph"}, [0, 1, 2]])
    def test_missing_num_layers_names_the_key(self, payload):
        with pytest.raises(ParameterError, match="num_layers"):
            from_json_dict(payload)

    @pytest.mark.parametrize("edge", [[0, "a"], [0, "a", "b", "c"], 7, "ab"])
    def test_bad_edge_names_its_entry(self, edge):
        payload = {"num_layers": 2, "edges": [[1, "a", "b"], edge]}
        with pytest.raises(ParameterError,
                           match=r"'edges' entry 1 must be a \[layer, u, v\]"):
            from_json_dict(payload)

    @pytest.mark.parametrize("payload, error, message", [
        ({"num_layers": "two"}, ParameterError, "num_layers must be an"),
        ({"num_layers": True}, ParameterError, "num_layers must be an"),
        ({"num_layers": 0}, ParameterError, "at least one layer"),
        ({"num_layers": 2, "vertices": 5}, ParameterError,
         "'vertices' must be a list"),
        ({"num_layers": 2, "edges": 5}, ParameterError,
         "'edges' must be a list"),
        ({"num_layers": 2, "vertices": [["a"]]}, ParameterError,
         "must be hashable"),
        ({"num_layers": 2, "edges": [["0", "a", "b"]]}, ParameterError,
         "a layer must be an integer"),
        ({"num_layers": 2, "edges": [[1.0, "a", "b"]]}, ParameterError,
         "a layer must be an integer"),
        ({"num_layers": 2, "edges": [[True, "a", "b"]]}, ParameterError,
         "a layer must be an integer"),
        ({"num_layers": 2, "edges": [[2, "a", "b"]]}, LayerIndexError,
         "out of range"),
        ({"num_layers": 2, "edges": [[0, ["a"], "b"]]}, ParameterError,
         "must be hashable"),
    ])
    def test_wrong_typed_fields_raise_typed_errors(self, payload, error,
                                                   message):
        with pytest.raises(error, match=message):
            from_json_dict(payload)

    def test_truncated_file_names_the_file(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"num_layers": 2, "edges": [')
        with pytest.raises(ParameterError,
                           match="truncated.json is not valid JSON"):
            read_json(path)


class TestBuilders:
    def test_from_edge_lists(self):
        g = from_edge_lists([[("a", "b")], [("b", "c")]], vertices=["z"])
        assert g.num_layers == 2
        assert "z" in g

    def test_from_edge_lists_empty(self):
        with pytest.raises(ParameterError):
            from_edge_lists([])

    def test_from_adjacency_symmetrises(self):
        g = from_adjacency([{"a": ["b"], "b": []}])
        assert g.has_edge(0, "b", "a")

    def test_from_networkx_like(self):
        class FakeGraph:
            nodes = ["a", "b", "c"]
            edges = [("a", "b"), ("c", "c")]

        g = from_networkx_layers([FakeGraph()])
        assert g.has_edge(0, "a", "b")
        assert not g.has_edge(0, "c", "c")

    def test_replicate_layer(self):
        g = replicate_layer([("a", "b")], 3)
        assert all(g.has_edge(layer, "a", "b") for layer in g.layers())
        with pytest.raises(ParameterError):
            replicate_layer([("a", "b")], 0)
