"""Multi-layer graph substrate: the two graph classes, builders, I/O.

Two classes implement the narrow graph protocol (``degree``,
``neighbors``, ``induced_degrees``, ``layers_of`` plus size accessors —
the full table is in :mod:`repro.graph.backend`):

* :class:`MultiLayerGraph` — the mutable dict-of-sets builder and delta
  log; arbitrary hashable vertices, O(1) edge tests, incremental updates.
* :class:`FrozenMultiLayerGraph` — the immutable CSR graph over dense
  integer ids with per-vertex layer-membership bitmasks, built with
  ``graph.freeze()`` and reversed with ``frozen.thaw()``.

Every search runs on the frozen graph: the peel kernels in
:mod:`repro.graph.kernels` are numpy passes over its CSR arrays.  A
search handed a :class:`MultiLayerGraph` freezes it (the conversion is
cached) and answers in its labels.
"""

from repro.graph.analysis import (
    core_size_profile,
    layer_edge_jaccard,
    layer_similarity_matrix,
    layer_statistics,
    recommend_support,
    support_histogram,
)
from repro.graph.builders import (
    from_adjacency,
    from_edge_lists,
    from_networkx_layers,
    replicate_layer,
    to_networkx_layers,
)
from repro.graph.export import (
    ascii_layer_summary,
    to_dot,
    to_graphml,
    write_dot,
    write_graphml,
)
from repro.graph.generators import (
    chung_lu_layers,
    erdos_renyi_layers,
    paper_figure1_graph,
    planted_communities,
    random_coherent_graph,
    temporal_snapshots,
)
from repro.graph.io import (
    from_json_dict,
    read_edge_list,
    read_json,
    to_json_dict,
    write_edge_list,
    write_json,
)
from repro.graph.backend import resolve_search_graph
from repro.graph.frozen import FrozenMultiLayerGraph
from repro.graph.multilayer import MultiLayerGraph

__all__ = [
    "MultiLayerGraph",
    "FrozenMultiLayerGraph",
    "resolve_search_graph",
    "layer_statistics",
    "layer_edge_jaccard",
    "layer_similarity_matrix",
    "support_histogram",
    "core_size_profile",
    "recommend_support",
    "to_dot",
    "write_dot",
    "to_graphml",
    "write_graphml",
    "ascii_layer_summary",
    "from_adjacency",
    "from_edge_lists",
    "from_networkx_layers",
    "to_networkx_layers",
    "replicate_layer",
    "erdos_renyi_layers",
    "chung_lu_layers",
    "planted_communities",
    "random_coherent_graph",
    "temporal_snapshots",
    "paper_figure1_graph",
    "read_edge_list",
    "write_edge_list",
    "read_json",
    "write_json",
    "to_json_dict",
    "from_json_dict",
]
