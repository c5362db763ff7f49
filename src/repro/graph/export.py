"""Export multi-layer graphs for external visualisation.

Two formats cover the common tools:

* **DOT** (Graphviz) — one file per export, layers distinguished by edge
  colour; optional vertex colouring by class (the Fig. 31 red/green/blue
  rendering is ``to_dot(graph, classes=...)``);
* **GraphML** — one ``<graph>`` with a ``layer`` attribute per edge,
  loadable by Gephi/yEd/networkx.

Exports are plain text built with ``xml.sax.saxutils``-grade escaping —
no third-party dependency.
"""

from xml.sax.saxutils import quoteattr

_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
    "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
)


def _dot_id(vertex):
    return '"{}"'.format(str(vertex).replace('"', r"\""))


def to_dot(graph, classes=None, class_colors=None, layers=None,
           name="multilayer"):
    """Render the graph as Graphviz DOT text.

    Parameters
    ----------
    classes:
        Optional ``{class_name: vertex_collection}`` colouring, e.g. the
        three cover-difference classes of Fig. 31.
    class_colors:
        Optional ``{class_name: color}``; defaults rotate a palette.
    layers:
        Optional subset of layers to draw (all by default).
    """
    layer_ids = list(graph.layers()) if layers is None else list(layers)
    lines = ["graph {} {{".format(name.replace(" ", "_"))]
    lines.append('  node [style=filled, fillcolor="#f0f0f0"];')

    color_of = {}
    if classes:
        names = list(classes)
        for index, class_name in enumerate(names):
            if class_colors and class_name in class_colors:
                color = class_colors[class_name]
            else:
                color = _PALETTE[index % len(_PALETTE)]
            for vertex in classes[class_name]:
                color_of[vertex] = color

    for vertex in sorted(graph.vertices(), key=str):
        if vertex in color_of:
            lines.append('  {} [fillcolor="{}"];'.format(
                _dot_id(vertex), color_of[vertex]
            ))
        else:
            lines.append("  {};".format(_dot_id(vertex)))

    for index, layer in enumerate(layer_ids):
        color = _PALETTE[index % len(_PALETTE)]
        for u, v in graph.edges(layer):
            lines.append('  {} -- {} [color="{}", layer="{}"];'.format(
                _dot_id(u), _dot_id(v), color, layer
            ))
    lines.append("}")
    return "\n".join(lines)


def write_dot(graph, path, **options):
    """Write :func:`to_dot` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(to_dot(graph, **options) + "\n")


def to_graphml(graph, name="multilayer"):
    """Render the graph as GraphML text with a ``layer`` edge attribute."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="layer" for="edge" attr.name="layer" attr.type="int"/>',
        '  <graph id={} edgedefault="undirected">'.format(quoteattr(name)),
    ]
    for vertex in sorted(graph.vertices(), key=str):
        lines.append("    <node id={}/>".format(quoteattr(str(vertex))))
    edge_id = 0
    for layer in graph.layers():
        for u, v in graph.edges(layer):
            lines.append(
                '    <edge id="e{}" source={} target={}>'.format(
                    edge_id, quoteattr(str(u)), quoteattr(str(v))
                )
            )
            lines.append(
                '      <data key="layer">{}</data>'.format(layer)
            )
            lines.append("    </edge>")
            edge_id += 1
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines)


def write_graphml(graph, path, name="multilayer"):
    """Write :func:`to_graphml` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(to_graphml(graph, name=name) + "\n")


def ascii_layer_summary(graph, width=40):
    """A terminal-friendly bar chart of per-layer edge counts."""
    counts = [graph.num_edges(layer) for layer in graph.layers()]
    top = max(counts, default=0)
    lines = []
    for layer, count in enumerate(counts):
        bar = "#" * (round(width * count / top) if top else 0)
        lines.append("layer {:>3d} |{:<{width}s}| {}".format(
            layer, bar, count, width=width
        ))
    return "\n".join(lines)

