"""Structured descriptions of batched graph mutations.

A :class:`GraphDelta` records the *net* effect of one mutation batch on
a :class:`~repro.graph.multilayer.MultiLayerGraph` — which edges were
added, which were removed, and whether the batch changed the vertex set
("structural").  The graph keeps a bounded log of recent deltas keyed by
``mutation_version``, and :meth:`MultiLayerGraph.delta_since` merges a
contiguous suffix of that log into one delta, which is what lets the
session layers (:class:`repro.engine.DCCEngine`, the cached ``freeze()``)
treat a mutation as an incremental *patch* rather than a rebuild-the-world
event.

Net-effect semantics: within one batch (and across merged batches) an
edge added and then removed cancels to nothing, as does the reverse —
edge presence has no attributes, so the algebra is exact.  Structural
changes (vertex addition/removal) are *not* tracked edge-by-edge: the
dense-id assignment of the frozen graph is derived from the sorted
vertex set, so any vertex-set change shifts ids and forces a full
rebuild; the delta just records that fact.

Edges are undirected: ``(layer, u, v)`` and ``(layer, v, u)`` denote the
same edge, and the cancellation helpers check both orientations (vertex
labels need not be mutually comparable, so no canonical orientation is
imposed).
"""


class GraphDelta:
    """The net effect of one (or several merged) mutation batches.

    Attributes
    ----------
    base_version:
        The graph's ``mutation_version`` before the batch.
    version:
        The ``mutation_version`` after the batch (``base_version + n``
        for a merge of ``n`` batches).
    edges_added / edges_removed:
        Tuples of ``(layer, u, v)`` triples — the net edge changes.
    structural:
        ``True`` when the batch changed the vertex set, which shifts the
        frozen graph's dense-id assignment and rules out patching.
    """

    __slots__ = ("base_version", "version", "edges_added", "edges_removed",
                 "structural")

    def __init__(self, base_version, version, edges_added=(),
                 edges_removed=(), structural=False):
        self.base_version = base_version
        self.version = version
        self.edges_added = tuple(edges_added)
        self.edges_removed = tuple(edges_removed)
        self.structural = bool(structural)

    @property
    def empty(self):
        """Whether the delta nets out to no change at all."""
        return not (self.edges_added or self.edges_removed
                    or self.structural)

    @property
    def edge_count(self):
        """Total net edge events (adds plus removes)."""
        return len(self.edges_added) + len(self.edges_removed)

    def touched_layers(self):
        """The layers whose edge sets this delta changes (a frozenset).

        Meaningful only for non-structural deltas: a structural batch
        invalidates every layer regardless of which edges it names.
        """
        return frozenset(
            layer for layer, _, _ in self.edges_added
        ) | frozenset(
            layer for layer, _, _ in self.edges_removed
        )

    def __repr__(self):
        return ("GraphDelta(v{}->v{}, +{} -{} edges{})".format(
            self.base_version, self.version, len(self.edges_added),
            len(self.edges_removed),
            ", structural" if self.structural else "",
        ))


def cancel_or_add(target, opposite, layer, u, v):
    """Record an undirected edge event with net-effect cancellation.

    Discards the edge from ``opposite`` (checking both orientations) if
    present — the two events annihilate — otherwise adds ``(layer, u,
    v)`` to ``target``.  Shared by the live mutation batch and by
    :func:`merge_entries`.
    """
    if (layer, u, v) in opposite:
        opposite.discard((layer, u, v))
    elif (layer, v, u) in opposite:
        opposite.discard((layer, v, u))
    else:
        target.add((layer, u, v))


def merge_entries(base_version, version, entries):
    """Fold a contiguous sequence of log entries into one delta.

    ``entries`` are the graph's internal ``(base, version, added,
    removed, structural)`` tuples, oldest first, covering exactly
    ``base_version .. version``.  Edge events cancel across batches
    exactly as they do within one.
    """
    added = set()
    removed = set()
    structural = False
    for _, _, batch_added, batch_removed, batch_structural in entries:
        structural = structural or batch_structural
        for layer, u, v in batch_added:
            cancel_or_add(added, removed, layer, u, v)
        for layer, u, v in batch_removed:
            cancel_or_add(removed, added, layer, u, v)
    return GraphDelta(base_version, version, tuple(added), tuple(removed),
                      structural)
