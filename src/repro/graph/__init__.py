"""Multi-layer graph substrate: backends, builders, I/O, generators.

Two interchangeable graph backends implement the narrow protocol that the
search stack in :mod:`repro.core` runs against (``degree``, ``neighbors``,
``induced_degrees``, ``layers_of`` plus size accessors — the full table is
in :mod:`repro.graph.backend`):

* :class:`MultiLayerGraph` — the mutable dict-of-sets reference backend;
  arbitrary hashable vertices, O(1) edge tests, incremental updates.
* :class:`FrozenMultiLayerGraph` — an immutable CSR backend over dense
  integer ids with per-vertex layer-membership bitmasks, built with
  ``graph.freeze()`` and reversed with ``frozen.thaw()``.

When to freeze: any read-heavy workload that runs many peeling passes over
a graph that no longer changes — which is every DCCS search — benefits
from freezing once the graph has a few hundred vertices; the flat-array
peel kernels in :mod:`repro.graph.kernels` then replace every hash lookup
of the hot loops with numpy passes over the CSR arrays.  ``search_dccs(backend="auto")``
applies exactly that rule automatically.
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
from repro.graph.backend import (
    BACKENDS,
    check_backend,
    resolve_search_graph,
    should_freeze,
)
from repro.graph.frozen import FrozenMultiLayerGraph
from repro.graph.multilayer import MultiLayerGraph
from repro.graph.views import LayerView

__all__ = [
    "MultiLayerGraph",
    "FrozenMultiLayerGraph",
    "BACKENDS",
    "check_backend",
    "resolve_search_graph",
    "should_freeze",
    "LayerView",
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
