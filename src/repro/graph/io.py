"""Reading and writing multi-layer graphs.

Two interchange formats are supported:

* **Layered edge list** — plain text, one edge per line as
  ``<layer> <u> <v>``, with ``#`` comments.  This is the natural encoding of
  the KONECT/SNAP temporal datasets the paper uses (each layer is a time
  period), and round-trips losslessly for graphs whose vertices are strings
  without whitespace.
* **JSON document** — fully general (any JSON-encodable vertex labels),
  self-describing, used by the dataset cache.

Isolated vertices survive both formats via an explicit vertex list.
"""

import json

from repro.graph.multilayer import MultiLayerGraph
from repro.utils.errors import ParameterError


def write_edge_list(graph, path):
    """Write ``graph`` to ``path`` in the layered edge-list format.

    The header comments record the layer count and the vertex universe so
    isolated vertices are not lost on read-back.
    """
    with open(path, "w") as handle:
        handle.write("# repro multi-layer edge list\n")
        handle.write("# layers: {}\n".format(graph.num_layers))
        vertex_line = " ".join(str(v) for v in sorted(graph.vertices(), key=str))
        handle.write("# vertices: {}\n".format(vertex_line))
        for layer, u, v in graph.all_edges():
            handle.write("{} {} {}\n".format(layer, u, v))


def _integer(text, what, path, line_number):
    """``text`` as an int, or a :class:`ParameterError` naming the line."""
    try:
        return int(text)
    except ValueError:
        raise ParameterError("{}, line {}: {} {!r} is not an integer".format(
            path, line_number, what, text)) from None


def read_edge_list(path, num_layers=None, name=""):
    """Read a layered edge-list file written by :func:`write_edge_list`.

    Vertices are read back as strings.  ``num_layers`` overrides the header
    (useful for files produced by other tools without one); if neither is
    available the layer count is inferred as ``max(layer) + 1``.  A line
    that does not parse raises :class:`ParameterError` naming it.
    """
    header_layers = None
    header_vertices = []
    edges = []
    max_layer = -1
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("layers:"):
                    header_layers = _integer(body.split(":", 1)[1].strip(),
                                             "layer count", path, line_number)
                elif body.startswith("vertices:"):
                    header_vertices = body.split(":", 1)[1].split()
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParameterError("{}, line {}: malformed edge line: {!r}"
                                     .format(path, line_number, line))
            layer = _integer(parts[0], "layer", path, line_number)
            max_layer = max(max_layer, layer)
            edges.append((layer, parts[1], parts[2]))
    layers = num_layers or header_layers
    if layers is None:
        if max_layer < 0:
            raise ParameterError("cannot infer the layer count of an empty file")
        layers = max_layer + 1
    graph = MultiLayerGraph(layers, vertices=header_vertices, name=name)
    for layer, u, v in edges:
        graph.add_edge(layer, u, v)
    return graph


def to_json_dict(graph):
    """Encode ``graph`` as a JSON-compatible dictionary."""
    return {
        "name": graph.name,
        "num_layers": graph.num_layers,
        "vertices": sorted(graph.vertices(), key=str),
        "edges": [
            [layer, u, v] for layer, u, v in graph.all_edges()
        ],
    }


def from_json_dict(payload, name=None):
    """Decode a dictionary produced by :func:`to_json_dict`.

    A payload without the ``num_layers`` key (or one that is not an
    object at all), whose ``vertices`` or ``edges`` is not a list, or
    with an edge that is not a ``[layer, u, v]`` triple, raises
    :class:`ParameterError` naming the key or the edge; the graph checks
    the types of the layer count, the layers and the vertices.
    """
    if not isinstance(payload, dict) or "num_layers" not in payload:
        raise ParameterError("a JSON graph needs a 'num_layers' key")
    for key in ("vertices", "edges"):
        if not isinstance(payload.get(key, []), list):
            raise ParameterError("'{}' must be a list, got {!r}".format(
                key, payload[key]))
    graph = MultiLayerGraph(
        payload["num_layers"],
        vertices=payload.get("vertices", ()),
        name=payload.get("name", "") if name is None else name,
    )
    for position, edge in enumerate(payload.get("edges", ())):
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            raise ParameterError(
                "'edges' entry {} must be a [layer, u, v] list, got {!r}"
                .format(position, edge))
        graph.add_edge(*edge)
    return graph


def write_json(graph, path):
    """Serialise ``graph`` to a JSON file at ``path``."""
    with open(path, "w") as handle:
        json.dump(to_json_dict(graph), handle)


def read_json(path, name=None):
    """Load a multi-layer graph from a JSON file written by :func:`write_json`.

    A file that does not decode as JSON raises :class:`ParameterError`
    naming the file and where decoding stopped.
    """
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise ParameterError("{} is not valid JSON: {}".format(
                path, error)) from None
    return from_json_dict(payload, name=name)
