"""Fig. 26 — scalability vs vertex fraction p on Stack.

Paper claim: all algorithms scale (near-)linearly in the vertex count.
The floor asserts on medians of three, re-timed on the sweep's own
sampled subgraphs (``sample_medians``).
"""

from repro.experiments import format_series

from benchmarks._shared import p_rows, record, sample_medians


def test_fig26_time_vs_p(benchmark):
    rows = benchmark.pedantic(p_rows, rounds=1, iterations=1)
    small = [row for row in rows if row["algorithm"] != "top-down"]
    large = [row for row in rows if row["algorithm"] == "top-down"]
    text = "\n\n".join((
        format_series(small, "p", "time_s",
                      title="Fig. 26(a) — time vs p on stack (small s)"),
        format_series(large, "p", "time_s",
                      title="Fig. 26(b) — time vs p on stack (large s)"),
    ))
    record("fig26_scal_p", text)

    medians = sample_medians("p", small, ("greedy",), (0.2, 1.0))
    # More vertices, more time (endpoints; middle points can be noisy).
    assert medians["greedy", 1.0] > medians["greedy", 0.2]
