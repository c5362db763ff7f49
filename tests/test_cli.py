"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import paper_figure1_graph
from repro.graph.io import write_edge_list, write_json


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "ppi"])
        assert args.d == 4
        assert args.s == 3
        assert args.method == "auto"

    def test_figure_number(self):
        args = build_parser().parse_args(["figure", "14", "--scale", "0.2"])
        assert args.number == 14
        assert args.scale == 0.2


class TestCommands:
    def test_info_dataset(self, capsys):
        assert main(["info", "ppi", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out
        assert "usable_cpus: " in out

    def test_info_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(paper_figure1_graph(), path)
        assert main(["info", str(path)]) == 0
        assert "layers: 4" in capsys.readouterr().out

    def test_search_json_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        write_json(paper_figure1_graph(), path)
        assert main(["search", str(path), "-d", "3", "-s", "2", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "cover 13 vertices" in out

    def test_search_method_choice(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        write_json(paper_figure1_graph(), path)
        assert main([
            "search", str(path), "-d", "3", "-s", "2", "-k", "2",
            "--method", "greedy",
        ]) == 0
        assert "greedy" in capsys.readouterr().out

    def test_datasets_table(self, capsys):
        assert main(["datasets", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 12" in out
        assert "Fig. 13" in out

    def test_figure_13(self, capsys):
        assert main(["figure", "13"]) == 0
        assert "parameter" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "99"]) == 2

    @pytest.mark.parametrize("argv", [
        ["-d", "3", "-s", "9", "-k", "2"],
        ["-d", "3", "-s", "2", "-k", "0"],
        ["-d", "3", "-s", "2", "-k", "2", "--jobs", "-1"],
    ])
    def test_search_bad_parameters_exit_2(self, argv, capsys):
        assert main(["search", "figure1"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("search failed: ")
        assert "Traceback" not in captured.err

    def test_search_missing_graph_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nosuch.json"
        argv = ["search", str(path), "-d", "3", "-s", "2", "-k", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "search failed: cannot read graph file")
        assert "Traceback" not in captured.err

    def test_search_json_without_num_layers_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a graph"}')
        argv = ["search", str(path), "-d", "3", "-s", "2", "-k", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("search failed: ")
        assert "num_layers" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("name, content, named", [
        ("truncated.json", '{"num_layers": 2, "edges": [',
         "truncated.json is not valid JSON"),
        ("edges.txt", "x a c\n", "line 1: layer 'x' is not an integer"),
        ("header.txt", "# layers: two\n0 a b\n",
         "line 1: layer count 'two' is not an integer"),
        ("short-edge.json", '{"num_layers": 2, "edges": [[0, "a"]]}',
         "'edges' entry 0 must be a [layer, u, v] list"),
    ])
    def test_search_malformed_graph_file_exits_2(self, tmp_path, capsys,
                                                 name, content, named):
        path = tmp_path / name
        path.write_text(content)
        argv = ["search", str(path), "-d", "1", "-s", "1", "-k", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("search failed: ")
        assert named in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("payload, named", [
        ({"num_layers": "two"}, "num_layers must be an integer"),
        ({"num_layers": True}, "num_layers must be an integer"),
        ({"num_layers": 2, "edges": [["0", "a", "b"]]},
         "a layer must be an integer, got '0'"),
        ({"num_layers": 2, "edges": [[0, ["a"], "b"]]},
         "a vertex must be hashable, got ['a']"),
        ({"num_layers": 2, "vertices": 5}, "'vertices' must be a list"),
        ({"num_layers": 2, "edges": 5}, "'edges' must be a list"),
    ])
    def test_search_wrong_typed_graph_file_exits_2(self, tmp_path, capsys,
                                                   payload, named):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload))
        argv = ["search", str(path), "-d", "1", "-s", "1", "-k", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("search failed: ")
        assert named in captured.err
        assert "Traceback" not in captured.err

    def test_figure_sweep_small(self, capsys):
        # Scale 0.05 keeps the whole sweep to about a second.
        assert main(["figure", "16", "--scale", "0.05"]) == 0
        assert "cover" in capsys.readouterr().out
