"""Fig. 27 — scalability vs layer fraction q on Stack.

Paper claims: time grows with ``q`` for every algorithm, and GD-DCCS
grows much faster than the search algorithms (its candidate family is
``binom(l, s)``).  The floors assert on medians of three, re-timed on
the sweep's own sampled subgraphs (``sample_medians``).
"""

from repro.experiments import format_series

from benchmarks._shared import q_rows, record, sample_medians


def test_fig27_time_vs_q(benchmark):
    rows = benchmark.pedantic(q_rows, rounds=1, iterations=1)
    small = [row for row in rows if row["algorithm"] != "top-down"]
    large = [row for row in rows if row["algorithm"] == "top-down"]
    text = "\n\n".join((
        format_series(small, "q", "time_s",
                      title="Fig. 27(a) — time vs q on stack (small s)"),
        format_series(large, "q", "time_s",
                      title="Fig. 27(b) — time vs q on stack (large s)"),
    ))
    record("fig27_scal_q", text)

    medians = sample_medians("q", small, ("greedy", "bottom-up"),
                             (0.2, 1.0))
    assert medians["greedy", 1.0] > medians["greedy", 0.2]
    # GD grows faster than BU from q=0.2 to q=1.0.
    gd_growth = medians["greedy", 1.0] / max(medians["greedy", 0.2], 1e-9)
    bu_growth = medians["bottom-up", 1.0] / max(
        medians["bottom-up", 0.2], 1e-9)
    assert gd_growth > bu_growth
