"""Cross-process serialization of the frozen CSR graph.

A parallel search ships its graph to every worker process exactly once —
through the pool initializer, never per task.  The payload is the flat
arrays themselves: each CSR buffer pickles as one contiguous
machine-typed block (``array.array`` via its reconstructor-plus-
``tobytes()`` protocol, numpy arrays via the buffer protocol when the
synthetic generator built them), so an n-vertex, l-layer graph crosses
the process boundary as ``2l`` buffers plus the label table, with no
per-edge Python object overhead.  A ``range`` label table — what the
synthetic generator produces for million-vertex graphs — is shipped as
the ``range`` object itself (three integers), never materialised into a
list.  The pool only ever gets the frozen search graph.

Reconstruction bypasses :meth:`FrozenMultiLayerGraph.from_graph` — the
dense-id assignment was already done on the parent's side, and re-sorting
labels in the worker could only introduce skew.  The payload *is* the
authoritative id order.
"""

from repro.graph.backend import require_frozen
from repro.graph.frozen import FrozenMultiLayerGraph, csr_nbytes


def graph_payload(graph):
    """A picklable payload for a frozen ``graph``; see :func:`payload_graph`.

    The CSR arrays, edge counts, layer bitmasks and label table verbatim
    (lazy caches are *not* shipped — workers rebuild the views they
    actually touch).
    """
    require_frozen(graph)
    labels = graph.labels
    if type(labels) is not range:
        labels = list(labels)
    return (
        graph.name,
        labels,
        graph._indptr,
        graph._indices,
        list(graph._edge_counts),
        list(graph._layer_masks),
    )


def payload_graph(payload):
    """Rebuild the frozen graph behind a :func:`graph_payload` tuple."""
    name, labels, indptr, indices, edge_counts, layer_masks = payload
    return FrozenMultiLayerGraph(
        labels, indptr, indices, edge_counts, layer_masks, name=name,
    )


def delta_payload(old_graph, new_graph, delta):
    """A picklable patch bringing a worker's ``old_graph`` to ``new_graph``.

    The streaming counterpart of :func:`graph_payload`: after a
    non-structural :class:`~repro.graph.delta.GraphDelta`, the engine
    ships only the touched layers' CSR arrays plus the layer-bitmask
    diff (untouched layers are shared by reference on the worker side
    exactly as they are on the orchestrator's).

    Only valid for non-structural deltas — the caller
    (:meth:`WorkerPool.apply_delta`) never sees a structural one, since
    those force a full session rebind.
    """
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
    return layers_data, mask_updates


def apply_delta_payload(graph, payload):
    """Apply a :func:`delta_payload` to a worker-side graph.

    Returns the post-delta graph, a *new* frozen view (frozen graphs are
    immutable) that keeps the untouched layers' cores.
    """
    layers_data, mask_updates = payload
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
    memo = graph.core_memo.carried(layers_data, csr_nbytes(indptr, indices))
    return FrozenMultiLayerGraph(
        graph.labels, indptr, indices, edge_counts, layer_masks,
        name=graph.name, core_memo=memo,
    )
