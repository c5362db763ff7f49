"""repro — Diversified Coherent Core Search on multi-layer graphs.

A from-scratch reproduction of *Diversified Coherent Core Search on
Multi-Layer Graphs* (Rong Zhu, Zhaonian Zou, Jianzhong Li; ICDE 2018).

The package exposes:

* :mod:`repro.graph` — the multi-layer graph substrate, builders, I/O and
  synthetic generators;
* :mod:`repro.core` — d-coherent cores and the three DCCS algorithms
  (greedy, bottom-up, top-down) with :func:`repro.search_dccs` as the
  one-call entry point;
* :mod:`repro.engine` — the persistent search session
  (:class:`repro.DCCEngine`): one graph, a warm worker pool and
  per-graph artifact caching;
* :mod:`repro.host` — multi-graph hosting (:class:`repro.DCCHost`): a
  registry of engine sessions with LRU admission control and a global
  memory budget;
* :mod:`repro.aio` — the async serving front-end
  (:class:`repro.AsyncDCCHost`): per-graph request queues, in-flight
  coalescing and backpressure over a hosted registry, the one batch
  path (``search_many``/``run_batch``) and the JSON-lines request
  handler both ``repro serve`` transports share;
* :mod:`repro.baselines` — the exact solver and the quasi-clique
  (MiMAG-style) comparison baseline;
* :mod:`repro.metrics` — cover / similarity / recovery metrics;
* :mod:`repro.datasets` — synthetic stand-ins for the paper's datasets;
* :mod:`repro.experiments` — the harness that regenerates every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import search_dccs
    from repro.graph import paper_figure1_graph

    result = search_dccs(paper_figure1_graph(), d=3, s=2, k=2)
    print(result.cover_size)          # 13 = |C_{1,3} ∪ C_{2,4}| (Section II)
"""

from repro.core import (
    bu_dccs,
    coherent_core,
    gd_dccs,
    search_dccs,
    td_dccs,
)
from repro.graph import MultiLayerGraph

__version__ = "1.1.0"

__all__ = [
    "MultiLayerGraph",
    "search_dccs",
    "DCCEngine",
    "DCCHost",
    "AsyncDCCHost",
    "coherent_core",
    "gd_dccs",
    "bu_dccs",
    "td_dccs",
    "__version__",
]


def __getattr__(name):
    # DCCEngine and DCCHost are exported lazily: both pull in the
    # parallel subsystem's multiprocessing plumbing, which
    # `import repro` for a purely sequential script should not pay for.
    if name == "DCCEngine":
        from repro.engine import DCCEngine

        return DCCEngine
    if name == "DCCHost":
        from repro.host import DCCHost

        return DCCHost
    if name == "AsyncDCCHost":
        from repro.aio import AsyncDCCHost

        return AsyncDCCHost
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name)
    )
