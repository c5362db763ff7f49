"""The paper's core contribution: d-CCs and the three DCCS algorithms.

One representation
------------------
Every search runs on the frozen CSR graph, and every peel is a numpy
kernel over its arrays (:mod:`repro.graph.kernels`).  The entry points
— :func:`search_dccs`, the three algorithms and the public peels
:func:`~repro.core.dcc.coherent_core`, :func:`~repro.core.dcore.layer_core`
and :func:`~repro.core.dcore.layer_core_decomposition` — also take a
:class:`~repro.graph.multilayer.MultiLayerGraph`: they freeze it (the
conversion is cached) and answer in its labels.  Everything below them
(preprocessing, the maintainer, the hierarchical index, InitTopK,
RefineU/RefineC and candidate enumeration) takes a frozen graph and
raises :class:`~repro.utils.errors.ParameterError` for any other.
"""

from repro.core.api import choose_method, search_dccs
from repro.core.bottomup import bu_dccs
from repro.core.coverage import DiversifiedTopK
from repro.core.dcc import (
    coherent_core,
    enumerate_candidates,
    is_coherent_dense,
    per_layer_cores,
)
from repro.core.dcore import (
    layer_core,
    layer_core_decomposition,
    layer_core_sizes,
)
from repro.core.greedy import gd_dccs, greedy_max_k_cover
from repro.core.hierarchy import (
    coherent_core_hierarchy,
    coherent_core_numbers,
    coherent_degeneracy,
    densest_coherent_core,
    suggest_degree_threshold,
)
from repro.core.index import CoreHierarchyIndex
from repro.core.maintain import ArrayCoreMaintainer
from repro.core.initk import init_topk
from repro.core.preprocess import (
    PreprocessResult,
    compute_support,
    order_layers,
    vertex_deletion,
)
from repro.core.refine import refine_core, refine_potential, split_layer_classes
from repro.core.result import DCCSResult
from repro.core.stats import SearchStats
from repro.core.topdown import td_dccs

__all__ = [
    "search_dccs",
    "choose_method",
    "gd_dccs",
    "bu_dccs",
    "td_dccs",
    "coherent_core",
    "is_coherent_dense",
    "per_layer_cores",
    "enumerate_candidates",
    "layer_core",
    "layer_core_decomposition",
    "layer_core_sizes",
    "DiversifiedTopK",
    "DCCSResult",
    "SearchStats",
    "CoreHierarchyIndex",
    "ArrayCoreMaintainer",
    "coherent_core_numbers",
    "coherent_core_hierarchy",
    "coherent_degeneracy",
    "densest_coherent_core",
    "suggest_degree_threshold",
    "init_topk",
    "vertex_deletion",
    "compute_support",
    "order_layers",
    "PreprocessResult",
    "refine_core",
    "refine_potential",
    "split_layer_classes",
    "greedy_max_k_cover",
]
