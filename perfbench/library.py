"""The ``search_200k`` workload: ``repro.core.search_dccs`` called directly.

One process, one thread, ``search_dccs`` defaults (``jobs=None``,
backend and kernel ``auto``) on a pre-frozen 200k-vertex
``synthetic_multilayer`` graph.  A pass runs four queries with ``k=8``:
greedy ``s=2``, bottom-up ``s=2`` and top-down ``s=4`` at ``d=4``, and
greedy ``s=2`` at ``d=2``.  At ``d=4`` vertex deletion removes almost
every vertex, so preprocessing and the top-down index dominate; at
``d=2`` most vertices survive and the coherent-core peels grow.  The
same preprocessing layer is thus exercised in opposite ways by the two
values of ``d``.  Each time is the median of the run's samples at the
quiet host speed (see ``hostspeed.py``).
"""

import gc
import hashlib
import statistics
import time

import repro.core
import repro.core.api
import repro.core.bottomup
import repro.core.coverage
import repro.core.dcc
import repro.core.greedy
import repro.core.initk
import repro.core.refine
import repro.core.topdown
import repro.graph.kernels
from repro.core.dcc import coherent_core
from repro.datasets.synthetic import synthetic_multilayer

from hostspeed import HostSpeed
from spans import SpanRecorder

K = 8
# (metric, method, d, s)
QUERIES = (
    ("greedy_d4_ms", "greedy", 4, 2),
    ("bottom_up_d4_ms", "bottom-up", 4, 2),
    ("top_down_d4_ms", "top-down", 4, 4),
    ("greedy_d2_ms", "greedy", 2, 2),
)
SETUP_REPEATS = 3


def build(seed):
    return synthetic_multilayer(
        200_000, num_layers=6, num_communities=120, community_size=64,
        d=4, span=4, seed=seed,
    )


def install_tracing(recorder):
    """Wrap each core layer where the algorithm modules look it up."""
    core = repro.core
    wrap = recorder.wrap
    wrap(core, "search_dccs", "core.api.search_dccs")
    wrap(core.api, "gd_dccs", "core.search.greedy")
    wrap(core.api, "bu_dccs", "core.search.bottom_up")
    wrap(core.api, "td_dccs", "core.search.top_down")
    for module in (core.greedy, core.bottomup, core.topdown):
        wrap(module, "vertex_deletion", "core.preprocess.vertex_deletion")
    for module in (core.bottomup, core.topdown):
        wrap(module, "init_topk", "core.initk.init_topk")
    wrap(core.topdown, "CoreHierarchyIndex", "core.index.build")
    for module in (core.dcc, core.bottomup, core.topdown, core.initk,
                   core.refine):
        wrap(module, "coherent_core", "core.dcc.coherent_core")
    wrap(core.greedy, "enumerate_candidates", "core.dcc.enumerate_candidates")
    wrap(core.greedy, "greedy_max_k_cover", "core.greedy.max_k_cover")
    wrap(core.topdown, "refine_potential", "core.refine.refine_potential")
    wrap(core.topdown, "refine_core", "core.refine.refine_core")
    wrap(core.coverage.DiversifiedTopK, "try_update",
         "core.coverage.try_update")
    for attr in ("np_coherent_core", "np_layer_core",
                 "np_core_decomposition", "np_induced_degrees"):
        wrap(repro.graph.kernels, attr, "graph.kernels.peel")


def digest(result):
    """Sets, labels, cover and counters of one result, as one hash."""
    payload = repr((
        [sorted(members) for members in result.sets],
        result.labels,
        result.cover_size,
        sorted(result.stats.as_dict().items()),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_passes(graph, seconds, samples, digests, stats, first_results,
               speed):
    """Run whole passes until ``seconds`` have elapsed (at least one).

    Samples are ``(begin, end)``; a reference reading precedes every
    query and follows the last.
    """
    passes = 0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < seconds:
        for metric, method, d, s in QUERIES:
            gc.collect()
            speed.read()
            begin = time.perf_counter()
            result = repro.core.search_dccs(graph, d, s, K, method=method)
            samples[metric].append((begin, time.perf_counter()))
            digests.setdefault(metric, set()).add(digest(result))
            first_results.setdefault(metric, result)
            for key, value in result.stats.as_dict().items():
                if isinstance(value, int):
                    stats[key] = stats.get(key, 0) + value
        passes += 1
    speed.read()
    return passes


def durations(samples):
    return {metric: [end - begin for begin, end in values]
            for metric, values in samples.items()}


def check(dataset, digests, first_results):
    """Output checks, outside the timed region; returns failed queries."""
    graph = dataset.graph
    wrong = set()
    for metric, _, d, _ in QUERIES:
        result = first_results[metric]
        if len(digests[metric]) != 1:
            wrong.add(metric)
        for label, members in zip(result.labels, result.sets):
            if coherent_core(graph, label, d, within=members) != members:
                wrong.add(metric)
        if d == 4:
            cover = result.cover
            if not all(community <= cover
                       for community in dataset.communities):
                wrong.add(metric)
    return wrong


def run(seed, seconds, trace):
    report = {"metrics": {}, "per_layer": {}, "provenance": {}}
    # The queries mix interpreter work with numpy gathers over the graph.
    speed = HostSpeed(numpy_share=0.5)
    setups, builds = [], []
    dataset = None
    for _ in range(1 if trace else SETUP_REPEATS):
        dataset = None
        gc.collect()
        speed.read()
        begin = time.perf_counter()
        dataset = build(seed)
        builds.append(time.perf_counter() - begin)
        # The frozen graph builds its numpy CSR views lazily; one query
        # that peels every layer fills them before timing starts.
        repro.core.search_dccs(dataset.graph, 4, 2, K, method="greedy")
        setups.append((begin, time.perf_counter()))
    speed.read()
    graph = dataset.graph

    samples = {metric: [] for metric, _, _, _ in QUERIES}
    digests, stats, first_results = {}, {}, {}
    recorder = None
    plain = 0
    if trace:
        # Half the run untraced, half traced: the difference is the
        # tracing overhead.
        plain = run_passes(graph, seconds / 2, samples, digests, stats,
                           first_results, speed)
        plain_pass_s = sum(map(sum, durations(samples).values())) / plain
        samples = {metric: [] for metric in samples}
        stats = {}
        recorder = SpanRecorder()
        install_tracing(recorder)
        try:
            passes = run_passes(graph, seconds / 2, samples, digests, stats,
                                first_results, speed)
        finally:
            recorder.uninstall()
    else:
        passes = run_passes(graph, seconds, samples, digests, stats,
                            first_results, speed)
    wrong = check(dataset, digests, first_results)

    report["attempted"] = (plain + passes) * len(QUERIES)
    report["failed"] = (plain + passes) * len(wrong)
    report["correct"] = not wrong
    raw = durations(samples)
    total_s = sum(map(sum, raw.values()))
    reported = {metric: statistics.median(speed.normalise(*sample)
                                          for sample in values)
                for metric, values in samples.items()}
    report["metrics"] = {
        "setup_s": (statistics.median(
            speed.normalise(*setup) for setup in setups), "s"),
        # One pass at the reported query times, as queries per second.
        "requests_per_s": (len(QUERIES) / sum(reported.values()), "1/s"),
    }
    for metric, value in reported.items():
        report["metrics"][metric] = (value * 1e3, "ms")
    report["provenance"] = {
        "passes": passes,
        "raw_samples_ms": {metric: [value * 1e3 for value in values]
                           for metric, values in raw.items()},
        "raw_median_ms": {metric: statistics.median(values) * 1e3
                          for metric, values in raw.items()},
        "setup_samples": len(setups),
        "raw_setup_s": [end - begin for begin, end in setups],
        "reference": speed.summary(),
        "build_s": builds,
        "wrong_queries": sorted(wrong),
        "vertices": graph.num_vertices,
        "layers": graph.num_layers,
        "kernel": graph.kernel,
    }
    if trace:
        report["per_layer"] = layer_metrics(recorder, stats, passes,
                                            total_s / passes, plain_pass_s,
                                            builds[0])
    return report


def layer_metrics(recorder, stats, passes, traced_pass_s, plain_pass_s,
                  build_s):
    """Per-pass self times and counters of the core layers."""
    table = recorder.summary()

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0) / passes

    generated = stats["candidates_generated"]
    pruned = stats["candidates_pruned"]
    return {
        "datasets.synthetic.build_s": build_s,
        "core.api.overhead_s": self_s("core.api.search_dccs"),
        "core.search.self_s": sum(
            self_s(name) for name in ("core.search.greedy",
                                      "core.search.bottom_up",
                                      "core.search.top_down")),
        "core.preprocess.vertex_deletion_s":
            self_s("core.preprocess.vertex_deletion"),
        "core.preprocess.vertices_deleted":
            stats["vertices_deleted"] / passes,
        "core.initk.init_topk_s": self_s("core.initk.init_topk"),
        "core.index.build_s": self_s("core.index.build"),
        "core.dcc.coherent_core_s": self_s("core.dcc.coherent_core"),
        "core.dcc.calls": stats["dcc_calls"] / passes,
        "core.dcc.enumerate_candidates_s":
            self_s("core.dcc.enumerate_candidates"),
        "core.greedy.max_k_cover_s": self_s("core.greedy.max_k_cover"),
        "core.refine.refine_potential_s":
            self_s("core.refine.refine_potential"),
        "core.refine.refine_core_s": self_s("core.refine.refine_core"),
        "core.coverage.try_update_s": self_s("core.coverage.try_update"),
        "core.coverage.accept_ratio":
            stats["updates_accepted"] / generated if generated
            else 0.0,
        "core.search.pruned_ratio":
            pruned / (generated + pruned) if generated + pruned else 0.0,
        "graph.kernels.peel_s": self_s("graph.kernels.peel"),
        "graph.kernels.peel_operations":
            stats["peel_operations"] / passes,
        "trace.overhead_pct":
            (traced_pass_s / plain_pass_s - 1.0) * 100.0,
    }
