"""Fig. 15 — execution time vs large s (GD vs BU vs TD).

Paper claims: (1) time decreases as ``s`` approaches ``l``; (2) BU-DCCS
degrades for large ``s`` (sometimes worse than GD); (3) TD-DCCS is the
fastest in this regime.

A second test guards BU-DCCS against the exponential cliff of the
literal BU-Gen (see :mod:`repro.core.bottomup`): on the wiki stand-in at
``s = 22`` and ``s = l = 24`` fewer than ``k`` non-empty d-CCs exist, so
no pruning rule ever arms.
"""

import signal

from repro.core import search_dccs
from repro.datasets import load
from repro.experiments import format_series

from benchmarks._shared import (
    FIG_SCALES,
    large_s_rows,
    median_times,
    record,
    series_lines,
)

# Seconds one BU search at the wiki points may take: it takes 1-2 s
# with the feasibility cut and did not finish in 120 s without it.
CLIFF_BOUND_S = 30


def test_fig15_time_vs_large_s(benchmark):
    rows = benchmark.pedantic(
        lambda: large_s_rows("english") + large_s_rows("stack"),
        rounds=1, iterations=1,
    )
    text = "\n\n".join(
        format_series(
            [row for row in rows if row["dataset"] == name],
            "s", "time_s",
            title="Fig. 15({}) — time vs large s on {}".format(tag, name),
        )
        for tag, name in (("a", "english"), ("b", "stack"))
    )
    record("fig15_time_large_s", text)

    for name in ("english", "stack"):
        lines = series_lines(
            [row for row in rows if row["dataset"] == name], "s", "time_s"
        )
        s_values = sorted(lines["greedy"])
        first, last = s_values[0], s_values[-1]
        # Every floor below compares medians of three samples each, not
        # five: one greedy search on stack at s = l - 4 takes seconds.
        (row,) = [row for row in rows if row["dataset"] == name
                  and row["algorithm"] == "top-down" and row["s"] == first]
        d, k = row["d"], row["k"]
        times = median_times(name, [
            ("greedy", d, first, k), ("top-down", d, first, k),
            ("greedy", d, last, k), ("bottom-up", d, last, k),
        ], rows, repeats=3)
        # Paper observation 1: time decreases as s grows towards l.
        assert times["greedy", d, last, k] < times["greedy", d, first, k]
        # Paper observation 3: TD-DCCS beats GD-DCCS decisively where the
        # candidate family is still large (the left edge, s = l - 4 — the
        # paper's "50X faster" point).
        assert times["top-down", d, first, k] < \
            0.5 * times["greedy", d, first, k]
        # Paper observation 2: BU loses its edge at the far right — at
        # s = l it is no longer meaningfully faster than greedy.
        assert times["bottom-up", d, last, k] > \
            0.5 * times["greedy", d, last, k]


def _within_bound(search):
    """Run ``search()``; raise TimeoutError past :data:`CLIFF_BOUND_S`."""

    def expire(signum, frame):
        raise TimeoutError(
            "search ran past {} s".format(CLIFF_BOUND_S)
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CLIFF_BOUND_S)
    try:
        return search()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_fig15_bottom_up_finishes_when_r_never_fills():
    graph = load("wiki", scale=FIG_SCALES["wiki"]).graph
    d, k = 4, 10
    lines = ["BU-DCCS on wiki (scale {}, l = {}), d = {}, k = {}".format(
        FIG_SCALES["wiki"], graph.num_layers, d, k)]
    for s in (22, graph.num_layers):
        bottom_up = _within_bound(
            lambda s=s: search_dccs(graph, d, s, k, method="bottom-up")
        )
        top_down = search_dccs(graph, d, s, k, method="top-down", seed=0)
        lines.append("s = {}: BU {:.3f} s, {} dCC calls, cover {} "
                     "(TD cover {})".format(
                         s, bottom_up.elapsed, bottom_up.stats.dcc_calls,
                         bottom_up.cover_size, top_down.cover_size))
        assert bottom_up.cover_size == top_down.cover_size, s
    print("\n".join(lines))
