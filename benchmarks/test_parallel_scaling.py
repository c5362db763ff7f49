"""Scaling benchmark for the parallel d-CC search (``jobs=N``).

A candidate-heavy greedy configuration — many layer subsets, each an
independent d-CC peel — is the workload the shard queue was built for:
the candidate family partitions perfectly, so measured scaling reflects
pool overhead plus Amdahl losses (preprocessing and the final max-k-cover
stay on the orchestrator), nothing algorithmic.

Two assertions always hold, on any machine:

* ``jobs=2`` and ``jobs=4`` return bitwise identical results (sets,
  labels, counters) to ``jobs=1``;
* the measured numbers are recorded under
  ``benchmarks/results/parallel_scaling.txt``.

The ≥1.5× wall-clock speedup assertion arms itself only where it can be
trusted: hosts with ≥ 4 CPUs (where even best-of-two timing has ample
headroom over pool spawn cost), or anywhere when
``REPRO_ASSERT_SCALING=1`` is set.  On 1-CPU hosts forked workers
time-slice one core and cannot beat the inline path; on busy 2-core
boxes a single slow run would fail the tier-1 suite with no code defect
present.  The measured numbers — and whether the target was met — are
always recorded, with the CPU count they were measured on: the CPUs
this process may run on (``repro.parallel.usable_cpus``), so a run
confined by ``taskset`` counts only the CPUs it was given.
"""

import os
from timeit import timeit

import pytest

from repro.core.api import search_dccs
from repro.datasets import load
from repro.parallel import usable_cpus

from benchmarks._shared import record

# english: 15 layers -> binom(15, 3) = 455 candidate subsets at s=3,
# plenty of queue depth for 4 workers.  The scale keeps one jobs=1 run
# in the hundreds of milliseconds so three timed variants stay cheap.
DATASET = "english"
SCALE = 0.25
D, S, K = 3, 3, 10
JOBS = (1, 2, 4)

SPEEDUP_TARGET = 1.5


def enforcement_armed(cpus):
    """Whether the speedup assertion is armed on this host.

    Hosts with >= 4 CPUs can be trusted to beat the target; anywhere
    else ``REPRO_ASSERT_SCALING=1`` arms it explicitly — the switch the
    CI harness smoke flips to prove the assertion path runs.
    """
    return cpus >= 4 or os.environ.get("REPRO_ASSERT_SCALING") == "1"


def assert_speedup(best, cpus, target=SPEEDUP_TARGET):
    """The enforcement assertion, shared by the real run and the smoke."""
    assert best >= target, (
        "parallel speedup {:.2f}x below target {}x on a {}-CPU host"
        .format(best, target, cpus)
    )


def test_parallel_scaling_report(benchmark):
    graph = load(DATASET, scale=SCALE, seed=0).frozen_graph()
    cpus = usable_cpus()

    results = {}
    timings = {}

    def run_all():
        # Best of two runs per jobs value: one-shot wall clocks on a
        # shared machine are noisy, and a spuriously slow jobs=1 baseline
        # would flatter the speedup as much as a slow jobs=4 run would
        # damn it.
        for jobs in JOBS:
            timings[jobs] = min(
                timeit(
                    lambda jobs=jobs: results.__setitem__(
                        jobs,
                        search_dccs(graph, D, S, K, method="greedy",
                                    jobs=jobs),
                    ),
                    number=1,
                )
                for _ in range(2)
            )
        return timings

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    base = results[JOBS[0]]
    for jobs in JOBS[1:]:
        assert results[jobs].sets == base.sets, jobs
        assert results[jobs].labels == base.labels, jobs
        assert results[jobs].stats.as_dict() == base.stats.as_dict(), jobs

    lines = [
        "Parallel scaling — greedy DCCS on {} stand-in "
        "(scale {}, d={}, s={}, k={})".format(DATASET, SCALE, D, S, K),
        "candidate family: {} subsets over {} layers, {} vertices".format(
            base.stats.extra["candidate_family_size"], graph.num_layers,
            graph.num_vertices,
        ),
        "usable CPUs: {}".format(cpus),
        "",
        "{:>5s}  {:>10s}  {:>8s}".format("jobs", "time_s", "speedup"),
    ]
    for jobs in JOBS:
        lines.append("{:>5d}  {:>10.3f}  {:>7.2f}x".format(
            jobs, timings[jobs], timings[JOBS[0]] / timings[jobs]
        ))
    lines.append("")
    lines.append(
        "results bitwise identical across jobs: yes "
        "(sets, labels, counters)"
    )
    best = max(timings[JOBS[0]] / timings[jobs] for jobs in JOBS[1:])
    enforce = enforcement_armed(cpus)
    if cpus >= 2:
        lines.append(
            "speedup target >= {}x on {} CPUs: {}{}".format(
                SPEEDUP_TARGET, cpus,
                "met" if best >= SPEEDUP_TARGET else "MISSED",
                "" if enforce else " (recorded only; set "
                "REPRO_ASSERT_SCALING=1 to enforce on < 4 CPUs)",
            )
        )
    else:
        lines.append(
            "speedup target >= {}x: not assessable on a single-CPU host "
            "(workers time-slice one core)".format(SPEEDUP_TARGET)
        )
        enforce = False
    record("parallel_scaling", "\n".join(lines))

    if enforce:
        assert_speedup(best, cpus)


# Scale for the harness smoke: one jobs=1 run lands in tens of
# milliseconds, so the smoke stays cheap enough for every CI run.
SMOKE_SCALE = 0.1


def test_scaling_assertion_harness_smoke(monkeypatch):
    """Prove the enforcement harness itself on any machine.

    A 1-CPU box cannot demonstrate real speedup, but it *can* prove the
    assertion path works: ``REPRO_ASSERT_SCALING=1`` must arm
    enforcement regardless of CPU count, a jobs=1-vs-jobs=1 measurement
    must flow through the same timing/equality plumbing as the real
    run, and the armed assertion must fail a missed target and pass a
    met one.  This closes the "assertion never exercised on 1-CPU
    hosts" hole without needing more cores.
    """
    monkeypatch.delenv("REPRO_ASSERT_SCALING", raising=False)
    assert enforcement_armed(cpus=1) is False
    assert enforcement_armed(cpus=4) is True
    monkeypatch.setenv("REPRO_ASSERT_SCALING", "1")
    assert enforcement_armed(cpus=1) is True

    graph = load(DATASET, scale=SMOKE_SCALE, seed=0).frozen_graph()
    results = {}
    timings = {}
    for arm in ("baseline", "candidate"):
        timings[arm] = min(
            timeit(
                lambda arm=arm: results.__setitem__(
                    arm,
                    search_dccs(graph, D, S, K, method="greedy", jobs=1),
                ),
                number=1,
            )
            for _ in range(2)
        )
    # The equality half of the harness, jobs=1 vs jobs=1: trivially
    # true unless the measurement plumbing itself is broken.
    assert results["candidate"].sets == results["baseline"].sets
    assert results["candidate"].stats.as_dict() == \
        results["baseline"].stats.as_dict()

    measured = timings["baseline"] / timings["candidate"]
    # Identical arms cannot legitimately reach the real target: the
    # armed assertion must fire on the miss...
    with pytest.raises(AssertionError):
        assert_speedup(min(measured, 1.0), cpus=1)
    # ...and pass once the target is met.
    assert_speedup(SPEEDUP_TARGET, cpus=1)
