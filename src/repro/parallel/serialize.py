"""Cross-process serialization of the two graph backends.

A parallel search ships its graph to every worker process exactly once —
through the pool initializer, never per task.  For the frozen CSR backend
that payload is the flat arrays themselves: each CSR buffer pickles as
one contiguous machine-typed block (``array.array`` via its
reconstructor-plus-``tobytes()`` protocol, numpy arrays via the buffer
protocol when the synthetic generator built them), so an n-vertex,
l-layer graph crosses the process boundary as ``2l`` buffers plus the
label table, with no per-edge Python object overhead.  A ``range`` label table
— what the synthetic generator produces for million-vertex graphs — is
shipped as the ``range`` object itself (three integers), never
materialised into a list.  The dict backend is shipped as its edge list
and rebuilt on the other side; it exists mainly so the ``jobs=`` option
works on either backend, the frozen representation is the one the
parallel subsystem is designed around.

Reconstruction bypasses :meth:`FrozenMultiLayerGraph.from_graph` — the
dense-id assignment was already done on the parent's side, and re-sorting
labels in the worker could only introduce skew.  The payload *is* the
authoritative id order.
"""

from repro.graph.frozen import FrozenMultiLayerGraph
from repro.graph.multilayer import MultiLayerGraph


def graph_payload(graph):
    """A picklable payload for ``graph``; see :func:`payload_graph`.

    Frozen graphs contribute their CSR arrays, edge counts, layer
    bitmasks and label table verbatim (lazy caches are *not* shipped —
    workers rebuild the views they actually touch).
    Dict graphs contribute an explicit vertex list plus per-layer edge
    lists, so the worker-side reconstruction is identical for every
    worker no matter how the parent's hash order happened to fall out.
    """
    if getattr(graph, "is_frozen", False):
        labels = graph.labels
        if type(labels) is not range:
            labels = list(labels)
        return (
            "frozen",
            graph.name,
            labels,
            graph._indptr,
            graph._indices,
            list(graph._edge_counts),
            list(graph._layer_masks),
        )
    vertices = list(graph.vertices())
    try:
        vertices.sort()
    except TypeError:
        vertices.sort(key=repr)
    edges = [
        (layer, u, v) for layer in graph.layers() for u, v in graph.edges(layer)
    ]
    return ("dict", graph.name, graph.num_layers, vertices, edges)


def payload_graph(payload):
    """Rebuild the graph behind a :func:`graph_payload` tuple."""
    kind = payload[0]
    if kind == "frozen":
        _, name, labels, indptr, indices, edge_counts, layer_masks = payload
        return FrozenMultiLayerGraph(
            labels, indptr, indices, edge_counts, layer_masks, name=name,
        )
    if kind == "dict":
        _, name, num_layers, vertices, edges = payload
        graph = MultiLayerGraph(num_layers, vertices=vertices, name=name)
        for layer, u, v in edges:
            graph.add_edge(layer, u, v)
        return graph
    raise ValueError("unknown graph payload kind {!r}".format(kind))


def delta_payload(old_graph, new_graph, delta):
    """A picklable patch bringing a worker's ``old_graph`` to ``new_graph``.

    The streaming counterpart of :func:`graph_payload`: after a
    non-structural :class:`~repro.graph.delta.GraphDelta`, the engine
    ships only what changed instead of re-shipping the graph.  For the
    frozen backend that is the touched layers' CSR arrays plus the
    layer-bitmask diff (untouched layers are shared by reference on the
    worker side exactly as they are on the orchestrator's); for the dict
    backend it is the net edge lists themselves.

    Only valid for non-structural deltas — the caller
    (:meth:`WorkerPool.apply_delta`) never sees a structural one, since
    those force a full session rebind.
    """
    if getattr(new_graph, "is_frozen", False):
        touched = sorted(delta.touched_layers())
        layers_data = {
            layer: (new_graph._indptr[layer], new_graph._indices[layer],
                    new_graph._edge_counts[layer])
            for layer in touched
        }
        mask_updates = [
            (vid, new_mask)
            for vid, (old_mask, new_mask) in enumerate(
                zip(old_graph._layer_masks, new_graph._layer_masks))
            if old_mask != new_mask
        ]
        return ("csr-patch", layers_data, mask_updates)
    return ("edge-patch", tuple(delta.edges_added),
            tuple(delta.edges_removed))


def apply_delta_payload(graph, payload):
    """Apply a :func:`delta_payload` to a worker-side graph.

    Returns the post-delta graph: a *new* frozen view for a CSR patch
    (frozen graphs are immutable), the same object mutated in place for
    a dict edge patch.
    """
    kind = payload[0]
    if kind == "csr-patch":
        _, layers_data, mask_updates = payload
        indptr = list(graph._indptr)
        indices = list(graph._indices)
        edge_counts = list(graph._edge_counts)
        layer_masks = list(graph._layer_masks)
        for layer, (ptr, idx, count) in layers_data.items():
            indptr[layer] = ptr
            indices[layer] = idx
            edge_counts[layer] = count
        for vid, mask in mask_updates:
            layer_masks[vid] = mask
        return FrozenMultiLayerGraph(
            graph.labels, indptr, indices, edge_counts, layer_masks,
            name=graph.name, core_memo=graph.core_memo.carried(layers_data),
        )
    if kind == "edge-patch":
        _, added, removed = payload
        with graph.update():
            for layer, u, v in added:
                graph.add_edge(layer, u, v)
            for layer, u, v in removed:
                graph.remove_edge(layer, u, v)
        return graph
    raise ValueError("unknown delta payload kind {!r}".format(kind))
