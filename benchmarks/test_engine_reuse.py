"""Session amortisation benchmark: cold one-shots vs one warm engine.

The workload the engine was built for is many small searches over one
graph — exactly where the one-shot path hurts most, because every
``search_dccs(..., jobs=N)`` call pays pool spawn, graph shipping and
preprocessing from scratch.  This benchmark runs the same 16 parallel
queries both ways on the quickstart dataset (the paper's Fig. 1 graph)
and records cold vs amortised per-query latency for jobs ∈ {1, 2} under
``benchmarks/results/engine_reuse.txt``.

Two assertions always hold, on any machine:

* results are bitwise identical (sets, labels, counters) between the
  one-shot calls and ``engine.search``;
* at jobs=2 the warm engine completes the 16 queries in at most half
  the one-shot wall clock.  Unlike the parallel-scaling target this is
  safe to enforce even on a single-CPU host: the engine *removes* 15
  pool spawns and 16 preprocessing passes rather than betting on
  physical parallelism, and the margin is typically far above 2x.
"""

from time import perf_counter

from repro.core.api import search_dccs
from repro.engine import DCCEngine
from repro.graph import paper_figure1_graph

from benchmarks._shared import record

QUERIES = 16
D, S, K = 3, 2, 2
JOBS = (1, 2)
AMORTISATION_TARGET = 2.0


def _check_identical(base, results, context):
    for result in results:
        assert result.sets == base.sets, context
        assert result.labels == base.labels, context
        assert result.stats.as_dict() == base.stats.as_dict(), context


def test_engine_reuse_report(benchmark):
    graph = paper_figure1_graph()
    timings = {}
    outputs = {}

    def run_all():
        # Best of two rounds per mode: one-shot wall clocks on a shared
        # machine are noisy, and a spuriously slow cold baseline would
        # flatter the amortisation exactly as much as a slow warm run
        # would damn it.
        for jobs in JOBS:
            for mode in ("one-shot", "engine"):
                best = None
                for _ in range(2):
                    start = perf_counter()
                    if mode == "one-shot":
                        results = [
                            search_dccs(graph, D, S, K, method="greedy",
                                        jobs=jobs)
                            for _ in range(QUERIES)
                        ]
                    else:
                        with DCCEngine(graph, jobs=jobs) as engine:
                            results = [
                                engine.search(D, S, K, method="greedy")
                                for _ in range(QUERIES)
                            ]
                    elapsed = perf_counter() - start
                    best = elapsed if best is None else min(best, elapsed)
                    outputs[(jobs, mode)] = results
                timings[(jobs, mode)] = best
        return timings

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    base = outputs[(1, "one-shot")][0]
    for key, results in outputs.items():
        _check_identical(base, results, key)

    lines = [
        "Engine reuse — {} repeated greedy searches on the quickstart "
        "dataset (figure1, d={}, s={}, k={})".format(QUERIES, D, S, K),
        "one-shot = {} independent search_dccs(..., jobs=N) calls "
        "(pool spawn + preprocessing per call)".format(QUERIES),
        "engine   = one DCCEngine serving all {} (spawn + artifacts "
        "amortised)".format(QUERIES),
        "",
        "{:>5s}  {:>14s}  {:>14s}  {:>12s}".format(
            "jobs", "one-shot (s)", "engine (s)", "amortisation",
        ),
    ]
    for jobs in JOBS:
        cold = timings[(jobs, "one-shot")]
        warm = timings[(jobs, "engine")]
        lines.append(
            "{:>5d}  {:>14.3f}  {:>14.3f}  {:>11.2f}x".format(
                jobs, cold, warm, cold / warm
            )
        )
    lines.append("")
    lines.append(
        "per-query amortised latency at jobs=2: {:.1f} ms warm vs "
        "{:.1f} ms cold".format(
            1000 * timings[(2, "engine")] / QUERIES,
            1000 * timings[(2, "one-shot")] / QUERIES,
        )
    )
    ratio = timings[(2, "one-shot")] / timings[(2, "engine")]
    lines.append(
        "results bitwise identical across all modes and jobs: yes "
        "(sets, labels, counters)"
    )
    lines.append(
        "amortisation target >= {}x at jobs=2: {} ({:.2f}x)".format(
            AMORTISATION_TARGET,
            "met" if ratio >= AMORTISATION_TARGET else "MISSED", ratio,
        )
    )
    record("engine_reuse", "\n".join(lines))

    assert ratio >= AMORTISATION_TARGET, (
        "warm engine amortisation {:.2f}x below the {}x target".format(
            ratio, AMORTISATION_TARGET
        )
    )

