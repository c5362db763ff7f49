"""Streaming-update throughput: delta rebind vs rebind-the-world.

The workload is the one the delta machinery was built for: a persistent
engine serving a stream of small mutation batches, each followed by a
query, where every batch touches a single hot layer of a many-layer
graph.  Two implementations answer the identical stream:

* **rebind-the-world** — the pre-delta serving story: every batch
  re-ships the graph (``graph.copy()``), rebuilds the CSR freeze from
  scratch and recomputes every per-layer artifact cold, exactly what a
  fresh ``DCCEngine`` per mutation does;
* **delta rebind** — one persistent engine; each batch lands through
  ``apply_delta`` and the next query patches the session in place
  (selective CSR re-freeze of the touched layer, artifact cache entries
  for the other layers kept, patch-vs-rebuild counters ticking).

Both streams must produce bitwise-identical answers per batch (sets,
labels, counters) — the speedup is only admissible because nothing
observable changes.  The report under
``benchmarks/results/streaming.txt`` records per-batch latency, stream
throughput and the engine's selective-invalidation counters; the
acceptance assertion is a >= 2x throughput ratio, which holds even on a
single-CPU host because the delta path *removes* work (7 of 8 layer
freezes, 7 of 8 layer-core recomputes) rather than betting on
parallelism.
"""

import random
from time import perf_counter

from repro.engine import DCCEngine
from repro.graph import MultiLayerGraph

from benchmarks._shared import record

N, LAYERS, P = 800, 8, 0.015
BATCHES = 12
BATCH_EDGES = 4
HOT_LAYER = 0
QUERY = dict(d=2, s=2, k=2, method="greedy")
THROUGHPUT_TARGET = 2.0


def build_graph(seed=7):
    rng = random.Random(seed)
    graph = MultiLayerGraph(LAYERS, vertices=range(N))
    for layer in range(LAYERS):
        for u in range(N):
            for v in range(u + 1, N):
                if rng.random() < P:
                    graph.add_edge(layer, u, v)
    return graph


def build_batches(graph, seed=23):
    """A deterministic update script, every batch touching the hot layer.

    Generated against a rolling scratch copy so each batch is valid
    (removes existing edges, adds missing ones) no matter which run
    replays it.
    """
    rng = random.Random(seed)
    scratch = graph.copy()
    vertices = sorted(scratch.vertices())
    batches = []
    for _ in range(BATCHES):
        add, remove, seen = [], [], set()
        while len(add) + len(remove) < BATCH_EDGES:
            u, v = rng.sample(vertices, 2)
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            if scratch.has_edge(HOT_LAYER, u, v):
                remove.append((HOT_LAYER, u, v))
            else:
                add.append((HOT_LAYER, u, v))
        scratch.apply_delta(add=add, remove=remove)
        batches.append((add, remove))
    return batches


def run_rebind_the_world(graph, batches):
    """Fresh copy + fresh engine per batch: the pre-delta serving cost."""
    results = []
    start = perf_counter()
    for add, remove in batches:
        graph.apply_delta(add=add, remove=remove)
        with DCCEngine(graph.copy(), jobs=1) as engine:
            results.append(engine.search(**QUERY))
    return perf_counter() - start, results


def run_delta_stream(graph, batches):
    """One persistent engine; updates land as deltas, rebinds patch."""
    results = []
    start = perf_counter()
    with DCCEngine(graph, jobs=1) as engine:
        engine.search(**QUERY)  # initial bind, part of the stream cost
        for add, remove in batches:
            graph.apply_delta(add=add, remove=remove)
            results.append(engine.search(**QUERY))
        elapsed = perf_counter() - start
        status = engine.info()
    return elapsed, results, status


def test_streaming_throughput_report(benchmark):
    base = build_graph()
    batches = build_batches(base)
    outputs = {}

    def run_both():
        timings = {}
        for mode in ("world", "delta"):
            best = None
            for _ in range(2):
                if mode == "world":
                    elapsed, results = run_rebind_the_world(
                        build_graph(), batches
                    )
                else:
                    elapsed, results, status = run_delta_stream(
                        build_graph(), batches
                    )
                    outputs["status"] = status
                best = elapsed if best is None else min(best, elapsed)
                outputs[mode] = results
            timings[mode] = best
        return timings

    timings = benchmark.pedantic(run_both, rounds=1, iterations=1)

    for index, (first, second) in enumerate(
        zip(outputs["world"], outputs["delta"])
    ):
        context = "batch {}".format(index)
        assert first.sets == second.sets, context
        assert first.labels == second.labels, context
        assert first.stats.as_dict() == second.stats.as_dict(), context

    status = outputs["status"]
    assert status["rebinds_patched"] == BATCHES
    assert status["rebinds_full"] == 0
    assert status["cache_layer_core_hits"] > 0
    assert status["cache_invalidations_kept"] > 0

    ratio = timings["world"] / timings["delta"]
    lines = [
        "Streaming updates — {} update batches ({} edges each, all on "
        "layer {}) interleaved with greedy queries (d={}, s={}, k={}) "
        "over a {}-vertex, {}-layer random graph".format(
            BATCHES, BATCH_EDGES, HOT_LAYER, QUERY["d"], QUERY["s"],
            QUERY["k"], N, LAYERS),
        "rebind-the-world = per batch: re-ship graph (copy), rebuild "
        "CSR freeze, recompute all artifacts cold (fresh DCCEngine)",
        "delta rebind     = one persistent engine; apply_delta + "
        "patched rebind (hot layer re-frozen, other layers' artifacts "
        "kept)",
        "",
        "{:<18s}  {:>10s}  {:>14s}  {:>14s}".format(
            "mode", "time_s", "per-batch ms", "batches/s"),
        "{:<18s}  {:>10.3f}  {:>14.2f}  {:>14.2f}".format(
            "rebind-the-world", timings["world"],
            1000 * timings["world"] / BATCHES,
            BATCHES / timings["world"]),
        "{:<18s}  {:>10.3f}  {:>14.2f}  {:>14.2f}".format(
            "delta rebind", timings["delta"],
            1000 * timings["delta"] / BATCHES,
            BATCHES / timings["delta"]),
        "",
        "engine counters over the delta stream: rebinds {} patched / "
        "{} full; layer-core artifacts {} hits / {} misses; "
        "invalidation kept {} / dropped {} entries; freeze {} patches "
        "/ {} rebuilds".format(
            status["rebinds_patched"], status["rebinds_full"],
            status["cache_layer_core_hits"],
            status["cache_layer_core_misses"],
            status["cache_invalidations_kept"],
            status["cache_invalidations_dropped"],
            status["freeze_patches"], status["freeze_rebuilds"]),
        "results bitwise identical per batch across both modes: yes "
        "(sets, labels, counters)",
        "throughput target >= {}x: {} ({:.2f}x)".format(
            THROUGHPUT_TARGET,
            "met" if ratio >= THROUGHPUT_TARGET else "MISSED", ratio),
    ]
    record("streaming", "\n".join(lines))

    assert ratio >= THROUGHPUT_TARGET, (
        "delta-stream throughput {:.2f}x below the {}x target".format(
            ratio, THROUGHPUT_TARGET
        )
    )
