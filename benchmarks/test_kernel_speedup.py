"""The million-vertex proving ground for the numpy peel kernels.

The synthetic generator (:func:`repro.datasets.synthetic_multilayer`)
plants circulant d-CC communities in power-law noise and assembles the
frozen CSR directly, so graph sizes the dict backend could never reach
(10^5–10^6 vertices) are cheap to build.  This module proves the
million-vertex acceptance end to end: the seeded 1M-vertex build stays
in bounded memory and ``search_dccs`` recovers every planted community,
recorded to ``benchmarks/results/kernel_million.txt``.
"""

from time import perf_counter

from repro.core.api import search_dccs
from repro.datasets import synthetic_multilayer

from benchmarks._shared import record

D = 4


def test_million_vertex_recovery(benchmark):
    """The 1M-vertex acceptance: bounded build, full planted recovery."""
    stats = {}

    def build_and_search():
        start = perf_counter()
        dataset = synthetic_multilayer(
            1_000_000, num_layers=3, num_communities=200,
            community_size=100, d=D, span=2, seed=3, name="million",
        )
        stats["build_s"] = perf_counter() - start
        graph = dataset.graph
        stats["memory_mb"] = graph.memory_bytes() / (1024 * 1024)
        stats["edges"] = sum(
            graph.num_edges(layer) for layer in graph.layers()
        )
        start = perf_counter()
        result = search_dccs(graph, d=D, s=2, k=4, method="greedy")
        stats["search_s"] = perf_counter() - start
        reported = [set(members) for members in result.sets]
        stats["recovered"] = sum(
            1 for community in dataset.communities
            if any(community <= found for found in reported)
        )
        stats["planted"] = len(dataset.communities)
        return stats

    benchmark.pedantic(build_and_search, rounds=1, iterations=1)

    record("kernel_million", "\n".join([
        "Million-vertex proving ground — synthetic_multilayer(1_000_000, "
        "3 layers, 200 planted communities, d={}, seed 3)".format(D),
        "",
        "build: {:.1f} s, {:,} edges, {:.0f} MB resident CSR".format(
            stats["build_s"], stats["edges"], stats["memory_mb"]),
        "greedy search_dccs(d={}, s=2, k=4): {:.1f} s".format(
            D, stats["search_s"]),
        "planted communities recovered inside reported d-CCs: "
        "{}/{}".format(stats["recovered"], stats["planted"]),
    ]))

    assert stats["recovered"] == stats["planted"], stats
    assert stats["memory_mb"] < 512, "CSR blew the bounded-memory claim"
