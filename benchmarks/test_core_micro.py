"""Micro-benchmarks of the core primitives (not tied to one figure).

These use pytest-benchmark's statistical timing (several rounds) because
the operations are fast and deterministic: single-layer d-core peeling,
multi-layer dCC peeling, and the Update structure — the three inner loops
every DCCS algorithm is built from.  Each peeling primitive is measured
on the frozen graph and through the label boundary of a
``MultiLayerGraph`` (its cached freeze plus the translation), and
checked against the reference peels of ``tests/oracle.py``.
"""

from repro.core.coverage import DiversifiedTopK
from repro.core.dcc import coherent_core
from repro.core.dcore import layer_core, layer_core_decomposition
from repro.datasets import load

from benchmarks._shared import FIG_SCALES, record
from tests import oracle


def _graph():
    return load("english", scale=FIG_SCALES["english"]).graph


def _frozen():
    return load("english", scale=FIG_SCALES["english"]).frozen_graph()


def test_d_core_single_layer(benchmark):
    graph = _graph()
    core = benchmark(layer_core, graph, 0, 4)
    assert core == oracle.d_core(graph.adjacency(0), 4)


def test_d_core_single_layer_frozen(benchmark):
    frozen = _frozen()
    core = benchmark(layer_core, frozen, 0, 4)
    assert frozen.labels_for(core) == oracle.d_core(
        _graph().adjacency(0), 4)


def test_core_decomposition_single_layer(benchmark):
    graph = _graph()
    numbers = benchmark(layer_core_decomposition, graph, 0)
    assert numbers == oracle.core_decomposition(graph.adjacency(0))


def test_coherent_core_three_layers(benchmark):
    graph = _graph()
    core = benchmark(coherent_core, graph, (0, 1, 2), 4)
    assert isinstance(core, frozenset)


def test_coherent_core_three_layers_frozen(benchmark):
    frozen = _frozen()
    core = benchmark(coherent_core, frozen, (0, 1, 2), 4)
    assert frozen.labels_for(core) == oracle.coherent_core(
        _graph(), (0, 1, 2), 4)


def test_update_structure_throughput(benchmark):
    graph = _graph()
    candidates = [
        coherent_core(graph, (layer,), 4) for layer in graph.layers()
    ]

    def feed():
        top = DiversifiedTopK(10)
        for candidate in candidates:
            top.try_update(candidate)
        return top.cover_size

    cover = benchmark(feed)
    assert cover >= 0


def test_search_space_reduction_report(benchmark):
    """The Section IV claim: BU examines a small fraction of GD's space."""
    from repro.experiments import search_space_reduction

    payload = benchmark.pedantic(
        lambda: search_space_reduction("english",
                                       scale=FIG_SCALES["english"]),
        rounds=1, iterations=1,
    )
    record(
        "search_space_reduction",
        "Search-space reduction (english, s={s}): GD examined "
        "{gd_candidates} candidate d-CC computations, BU {bu_candidates} "
        "({reduction:.1%} reduction); covers {gd_cover} vs {bu_cover}".format(
            **payload
        ),
    )
    assert payload["reduction"] > 0.5
